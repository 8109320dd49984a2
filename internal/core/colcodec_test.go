package core

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"github.com/haten2/haten2/internal/gen"
	"github.com/haten2/haten2/internal/matrix"
	"github.com/haten2/haten2/internal/mr"
	"github.com/haten2/haten2/internal/tensor"
)

// The columnar codec's load-bearing invariant is that the segment sizer
// charges exactly the bytes the encoder produces: the mr engine
// accounts shuffle volume through BlockCodec.Size without ever
// materializing a block in process, so any drift between sizer and
// encoder silently corrupts the cost model (simulated time, resource
// limits, the paper's Tables III/IV). The tests here pin both
// directions — Size == len(encoding), and decode ∘ encode == identity —
// on structured, adversarial, and fuzzed inputs, plus the end-to-end
// form: the bytes a job is charged equal the length of the blocks its
// shuffle writes.

// randEntries builds n entries with a controllable index spread. Sorted
// sequences exercise the tiny-delta fast path; unsorted ones (shuffle
// emission order) exercise sign flips and wide deltas.
func randEntries(rng *rand.Rand, n int, span int64, sorted bool) []Entry {
	out := make([]Entry, n)
	for i := range out {
		out[i] = Entry{
			Idx: [3]int64{rng.Int63n(2*span+1) - span, rng.Int63n(2*span+1) - span, rng.Int63n(2*span+1) - span},
			Val: rng.NormFloat64(),
		}
	}
	if sorted {
		sortEntries(out)
	}
	return out
}

func sortEntries(es []Entry) {
	for i := 1; i < len(es); i++ {
		for j := i; j > 0 && lessIdx(es[j].Idx, es[j-1].Idx); j-- {
			es[j], es[j-1] = es[j-1], es[j]
		}
	}
}

func lessIdx(a, b [3]int64) bool {
	for m := 0; m < 3; m++ {
		if a[m] != b[m] {
			return a[m] < b[m]
		}
	}
	return false
}

func TestEntryBlockRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := [][]Entry{
		nil,
		{},
		{{Idx: [3]int64{0, 0, 0}, Val: 0}},
		{{Idx: [3]int64{math.MaxInt64, math.MinInt64, -1}, Val: math.NaN()}},
		randEntries(rng, 1000, 50, true),
		randEntries(rng, 1000, 50, false),
		randEntries(rng, 257, math.MaxInt64/2, false),
	}
	for ci, es := range cases {
		enc := AppendEntryBlock(nil, es)
		dec, rest, err := DecodeEntryBlock(enc)
		if err != nil {
			t.Fatalf("case %d: decode: %v", ci, err)
		}
		if len(rest) != 0 {
			t.Fatalf("case %d: %d trailing bytes", ci, len(rest))
		}
		if len(dec) != len(es) {
			t.Fatalf("case %d: decoded %d records, want %d", ci, len(dec), len(es))
		}
		for i := range es {
			if dec[i].Idx != es[i].Idx || math.Float64bits(dec[i].Val) != math.Float64bits(es[i].Val) {
				t.Fatalf("case %d record %d: got %+v want %+v", ci, i, dec[i], es[i])
			}
		}
	}
}

func TestMatEntryBlockRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var cells []MatEntry
	for i := 0; i < 500; i++ {
		cells = append(cells, MatEntry{
			Row: rng.Int63n(1 << 40), Col: int32(rng.Intn(1 << 20)), Val: rng.NormFloat64(),
		})
	}
	for _, cs := range [][]MatEntry{nil, cells[:1], cells} {
		enc := AppendMatEntryBlock(nil, cs)
		dec, rest, err := DecodeMatEntryBlock(enc)
		if err != nil || len(rest) != 0 {
			t.Fatalf("decode: %v, %d trailing", err, len(rest))
		}
		for i := range cs {
			if dec[i] != cs[i] {
				t.Fatalf("record %d: got %+v want %+v", i, dec[i], cs[i])
			}
		}
	}
}

// checkSValBlock pins the shuffle block's contract at one tensor order:
// Size(seg) == len(Append(nil, seg)) and decode ∘ encode == identity,
// decoding after a non-empty prefix of dst, which Decode must keep.
func checkSValBlock[I index](t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	var seg []mr.Pair[[3]int64, sval[I]]
	for i := 0; i < 800; i++ {
		v := sval[I]{tag: uint8(rng.Intn(5)), col: int32(rng.Intn(64)), val: rng.NormFloat64()}
		for m := 0; m < len(v.idx); m++ {
			v.idx[m] = rng.Int63n(1000)
		}
		seg = append(seg, mr.Pair[[3]int64, sval[I]]{K: [3]int64{rng.Int63n(1000), rng.Int63n(1000), rng.Int63n(5)}, V: v})
	}
	for _, n := range []int{0, 1, 800} {
		enc := appendSValBlock(nil, seg[:n])
		if got, want := svalSize(seg[:n]), int64(len(enc)); got != want {
			t.Fatalf("n=%d: encoded %d bytes, Size declared %d", n, want, got)
		}
		dec, rest, err := decodeSValBlock(enc, seg[799:800:800])
		if err != nil || len(rest) != 0 || len(dec) != n+1 || dec[0] != seg[799] {
			t.Fatalf("n=%d: decode: %v, %d trailing, %d records", n, err, len(rest), len(dec))
		}
		for i := 0; i < n; i++ {
			if dec[1+i] != seg[i] {
				t.Fatalf("n=%d record %d: got %+v want %+v", n, i, dec[1+i], seg[i])
			}
		}
	}
}

func TestSValBlockContract(t *testing.T) { checkSValBlock[[3]int64](t, 3) }

// TestNSValBlockContract is the same contract for the N-way (order-4)
// instantiation of the shuffle block.
func TestNSValBlockContract(t *testing.T) { checkSValBlock[[4]int64](t, 4) }

// shipCounter is a Loopback that totals the partitions shipped across
// it: across the backend seam every non-empty (map task, reducer)
// segment crosses as exactly one block of the job's codec.
type shipCounter struct {
	*mr.Loopback
	mu     sync.Mutex
	bytes  int64
	blocks int
}

func (s *shipCounter) ShipPartitions(keys []mr.PartKey, blocks [][]byte) error {
	s.mu.Lock()
	for _, b := range blocks {
		s.bytes += int64(len(b))
	}
	s.blocks += len(blocks)
	s.mu.Unlock()
	return s.Loopback.ShipPartitions(keys, blocks)
}

// TestColumnarChargeMatchesEncodedBytes is the end-to-end form of the
// codec contract: the engine sizes each non-empty (map task, reducer)
// segment with exactly one Size call, and the shuffle bytes it charges
// equal, to the byte, the blocks the encoder writes for the same
// segments. The encodings are measured where they really exist —
// shipped across the backend seam, one block per non-empty segment. It
// runs on a multi-reducer cluster, in process and across the seam (the
// charge is the engine's, not the backend's).
func TestColumnarChargeMatchesEncodedBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	entries := randEntries(rng, 2000, 400, true)
	var sized atomic.Int64 // Size calls
	codec := *stack3.codec
	codec.Size = func(seg []mr.Pair[[3]int64, sval3]) int64 {
		sized.Add(1)
		return svalSize(seg)
	}
	job := mr.Job[[3]int64, sval3, YEntry]{
		Name: "charge-invariant",
		Inputs: []mr.Input[[3]int64, sval3]{mr.MapInput("in", func(e Entry, emit func([3]int64, sval3)) {
			emit([3]int64{e.Idx[0] / 40, e.Idx[1] / 40, 0}, sval3{tag: tagTensor, idx: e.Idx, val: e.Val})
		})},
		Reduce: func(k [3]int64, vs []sval3, emit func(YEntry)) {
			var s float64
			for _, v := range vs {
				s += v.val
			}
			emit(YEntry{I: k[0], Val: s})
		},
		Partition: mr.HashTriple,
		BlockKV:   &codec,
		OutSize:   yEntrySize,
	}
	counter := &shipCounter{Loopback: mr.NewLoopback()}
	var stats [2]mr.JobStats
	var calls [2]int64
	for i, backend := range []mr.Backend{nil, counter} {
		c := mr.NewCluster(mr.Config{Machines: 2, SlotsPerMachine: 2})
		c.SetBackend(backend)
		if err := mr.WriteFile(c, "in", entries, entrySize); err != nil {
			t.Fatal(err)
		}
		sized.Store(0)
		_, st, err := mr.Run(c, job)
		if err != nil {
			t.Fatal(err)
		}
		stats[i], calls[i] = st, sized.Load()
	}
	if stats[0] != stats[1] {
		t.Fatalf("the backend moved the job's stats:\n%+v\n%+v", stats[0], stats[1])
	}
	st := stats[0]
	if calls[0] != int64(counter.blocks) || calls[1] != int64(counter.blocks) || counter.blocks == 0 {
		t.Fatalf("%d shipped blocks, sized by %d Size calls in process and %d across the seam",
			counter.blocks, calls[0], calls[1])
	}
	if st.ShuffleBytes != counter.bytes {
		t.Fatalf("engine charged %d shuffle bytes, the %d shipped blocks total %d",
			st.ShuffleBytes, counter.blocks, counter.bytes)
	}
	if st.ShuffleRecords != int64(len(entries)) {
		t.Fatalf("shuffle records %d, want %d", st.ShuffleRecords, len(entries))
	}
	// And the whole point of the codec: the columnar charge must be
	// strictly below the fixed-width charge for the same shuffle.
	if fixed := st.ShuffleRecords * hEntryBytes; st.ShuffleBytes >= fixed {
		t.Fatalf("columnar charge %d not below fixed-width charge %d", st.ShuffleBytes, fixed)
	}
}

// TestSValPacked pins the shuffle value's layout: widest field first
// packs it to 40 bytes at order 3 and 48 at order 4, so the engine's
// pair stays 72 bytes and is copied with inline moves. A field added
// later that re-pads the value fails here, not in a profile.
func TestSValPacked(t *testing.T) {
	if got := unsafe.Sizeof(sval[[3]int64]{}); got != 40 {
		t.Errorf("order-3 sval is %d bytes, want 40", got)
	}
	if got := unsafe.Sizeof(sval[[4]int64]{}); got != 48 {
		t.Errorf("order-4 sval is %d bytes, want 48", got)
	}
}

// TestColumnarShuffleBelowFixedWidth freezes the fixed-width reference
// the columnar codec replaced. It pins the shuffle total of a small
// PARAFAC-DRI run and requires it to stay strictly below what the same
// records cost at fixed width — computed arithmetically from the record
// counts and the *Bytes constants: every tensor-derived record (two per
// nonzero per factor column in IMHP, one per IMHP output in the merge)
// at hEntryBytes, every factor cell at matEntryBytes.
func TestColumnarShuffleBelowFixedWidth(t *testing.T) {
	const rank, iters = 3, 3
	c := mr.NewCluster(mr.Config{Machines: 2, SlotsPerMachine: 2})
	x := smallTestTensor(t)
	if _, err := ParafacALS(c, x, rank, Options{Variant: DRI, MaxIters: iters, Tol: 1e-12, Seed: 11}); err != nil {
		t.Fatal(err)
	}
	tot := c.Totals()
	var tensorRecs, matRecs int64
	for n := 0; n < 3; n++ {
		cells := int64(0)
		for _, m := range others(3, n) {
			cells += x.Dim(m) * rank
		}
		matRecs += iters * cells
	}
	tensorRecs = tot.ShuffleRecords - matRecs
	fixed := tensorRecs*hEntryBytes + matRecs*matEntryBytes
	const pinned = 148032
	if tot.ShuffleBytes != pinned {
		t.Fatalf("columnar shuffle bytes %d, pinned %d (%d records)", tot.ShuffleBytes, pinned, tot.ShuffleRecords)
	}
	if tot.ShuffleBytes >= fixed {
		t.Fatalf("columnar shuffle bytes %d not strictly below the fixed-width price %d", tot.ShuffleBytes, fixed)
	}
}

func smallTestTensor(t *testing.T) *tensor.Tensor {
	t.Helper()
	return gen.Random(42, [3]int64{8, 8, 8}, 120)
}

func assertSameParafac(t *testing.T, a, b *ParafacResult) {
	t.Helper()
	if len(a.Model.Lambda) != len(b.Model.Lambda) {
		t.Fatalf("lambda lengths differ: %d vs %d", len(a.Model.Lambda), len(b.Model.Lambda))
	}
	for i := range a.Model.Lambda {
		if math.Float64bits(a.Model.Lambda[i]) != math.Float64bits(b.Model.Lambda[i]) {
			t.Fatalf("lambda[%d] differs: %v vs %v", i, a.Model.Lambda[i], b.Model.Lambda[i])
		}
	}
	for m := range a.Model.Factors {
		assertSameMatrix(t, a.Model.Factors[m], b.Model.Factors[m])
	}
}

func assertSameMatrix(t *testing.T, a, b *matrix.Matrix) {
	t.Helper()
	if a.Rows != b.Rows || a.Cols != b.Cols {
		t.Fatalf("matrix shapes differ: %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			t.Fatalf("matrix cell %d differs: %v vs %v", i, a.Data[i], b.Data[i])
		}
	}
}

// FuzzColumnarRoundTrip drives the columnar block codecs from both
// directions. Forward: deterministically expand the fuzz bytes into a
// record batch, then require len(encoding) == declared size and
// decode ∘ encode == identity (bit-level on float payloads, so NaN
// boxing survives). Backward: attempt to decode the raw fuzz bytes as a
// block; whenever the decoder accepts a prefix, re-encoding the decoded
// records must reproduce that prefix byte-for-byte.
func FuzzColumnarRoundTrip(f *testing.F) {
	f.Add(uint8(0), []byte{})
	f.Add(uint8(1), []byte{0})
	f.Add(uint8(2), []byte{3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add(uint8(3), AppendEntryBlock(nil, []Entry{
		{Idx: [3]int64{1, 2, 3}, Val: 4.5},
		{Idx: [3]int64{-9, 0, 1 << 40}, Val: math.Inf(-1)},
	}))
	f.Add(uint8(0), AppendMatEntryBlock(nil, []MatEntry{{Row: 5, Col: -1, Val: math.NaN()}}))
	f.Add(uint8(4), appendSValBlock(nil, []mr.Pair[[3]int64, sval3]{
		{K: [3]int64{3, 0, 9}, V: sval3{tag: 2, idx: [3]int64{3, 0, 9}, col: 2, val: -0.5}},
		{K: [3]int64{3, 1, 0}, V: sval3{idx: [3]int64{3, 1, 0}, val: 1}},
	}))
	f.Add(uint8(5), appendSValBlock(nil, []mr.Pair[[3]int64, sval[[4]int64]]{
		{K: [3]int64{1, 2, 0}, V: sval[[4]int64]{tag: 1, idx: [4]int64{1, 2, 3, 1 << 33}, col: 1 << 30, val: math.Inf(1)}},
	}))
	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		// Forward: data → records → encode → size check → decode.
		rng := rand.New(rand.NewSource(int64(len(data))))
		take := func(i int) int64 {
			if i < len(data) {
				return int64(int8(data[i]))*1099511627776 + rng.Int63n(1000)
			}
			return rng.Int63n(1000) - 500
		}
		n := int(kind % 17)
		// Kinds 4 and 5 fold onto the shuffle blocks of kinds 2 and 3, so
		// every checked-in corpus input still drives a codec.
		switch kind % 6 {
		case 0:
			es := make([]Entry, n)
			for i := range es {
				es[i] = Entry{Idx: [3]int64{take(3 * i), take(3*i + 1), take(3*i + 2)}, Val: rng.NormFloat64()}
			}
			enc := AppendEntryBlock(nil, es)
			dec, rest, err := DecodeEntryBlock(enc)
			if err != nil || len(rest) != 0 || len(dec) != n {
				t.Fatalf("Entry round trip: %v, %d trailing, %d records", err, len(rest), len(dec))
			}
			for i := range es {
				if dec[i].Idx != es[i].Idx || math.Float64bits(dec[i].Val) != math.Float64bits(es[i].Val) {
					t.Fatalf("Entry %d: %+v != %+v", i, dec[i], es[i])
				}
			}
		case 1:
			cs := make([]MatEntry, n)
			for i := range cs {
				cs[i] = MatEntry{Row: take(2 * i), Col: int32(take(2*i + 1)), Val: rng.NormFloat64()}
			}
			enc := AppendMatEntryBlock(nil, cs)
			dec, rest, err := DecodeMatEntryBlock(enc)
			if err != nil || len(rest) != 0 || len(dec) != n {
				t.Fatalf("MatEntry round trip: %v, %d trailing, %d records", err, len(rest), len(dec))
			}
			for i := range cs {
				if dec[i].Row != cs[i].Row || dec[i].Col != cs[i].Col ||
					math.Float64bits(dec[i].Val) != math.Float64bits(cs[i].Val) {
					t.Fatalf("MatEntry %d: %+v != %+v", i, dec[i], cs[i])
				}
			}
		case 2, 4:
			seg := make([]mr.Pair[[3]int64, sval3], n)
			for i := range seg {
				seg[i] = mr.Pair[[3]int64, sval3]{K: [3]int64{take(6 * i), take(6*i + 1), take(6*i + 2)}, V: sval3{
					tag: uint8(take(6*i + 3)),
					idx: [3]int64{take(6*i + 4), take(6*i + 5), rng.Int63n(100)},
					col: int32(rng.Intn(256)),
					val: rng.NormFloat64(),
				}}
			}
			svalRoundTrips(t, seg)
		case 3, 5:
			seg := make([]mr.Pair[[3]int64, sval[[4]int64]], n)
			for i := range seg {
				var idx [4]int64
				for m := range idx {
					idx[m] = take(4*i + 2 + m)
				}
				seg[i] = mr.Pair[[3]int64, sval[[4]int64]]{K: [3]int64{take(4 * i), take(4*i + 1), 0},
					V: sval[[4]int64]{tag: uint8(rng.Intn(5)), idx: idx, col: int32(rng.Intn(256)), val: rng.NormFloat64()}}
			}
			svalRoundTrips(t, seg)
		}

		// Backward: arbitrary bytes through the decoders. Acceptance is
		// rare (the count header must be plausible), but whenever a
		// decoder accepts, re-encoding must reproduce the consumed
		// prefix exactly.
		reencodes(t, data, DecodeEntryBlock, AppendEntryBlock)
		reencodes(t, data, DecodeMatEntryBlock, AppendMatEntryBlock)
	})
}

// svalRoundTrips is the forward direction of FuzzColumnarRoundTrip for
// one shuffle segment: Size == len(encoding), and decode ∘ encode is the
// identity bit for bit.
func svalRoundTrips[I index](t *testing.T, seg []mr.Pair[[3]int64, sval[I]]) {
	t.Helper()
	enc := appendSValBlock(nil, seg)
	if int64(len(enc)) != svalSize(seg) {
		var order I
		t.Fatalf("order-%d sval: encoded %d, Size declared %d", len(order), len(enc), svalSize(seg))
	}
	dec, rest, err := decodeSValBlock(enc, []mr.Pair[[3]int64, sval[I]](nil))
	if err != nil || len(rest) != 0 || len(dec) != len(seg) {
		t.Fatalf("sval round trip: %v, %d trailing, %d records", err, len(rest), len(dec))
	}
	for i, p := range seg {
		d := dec[i]
		if d.K != p.K || d.V.tag != p.V.tag || d.V.idx != p.V.idx || d.V.col != p.V.col ||
			math.Float64bits(d.V.val) != math.Float64bits(p.V.val) {
			t.Fatalf("sval %d: %+v != %+v", i, d, p)
		}
	}
}

// reencodes is the backward direction of FuzzColumnarRoundTrip for one
// block codec.
func reencodes[R any](t *testing.T, data []byte, decode func([]byte) ([]R, []byte, error), encode func([]byte, []R) []byte) {
	t.Helper()
	if recs, rest, err := decode(data); err == nil {
		reenc := encode(nil, recs)
		if consumed := len(data) - len(rest); len(reenc) != consumed || string(reenc) != string(data[:consumed]) {
			t.Fatalf("%T decoder accepted %d bytes but re-encode differs", recs, consumed)
		}
	}
}

// TestVarintLenMatchesEncoder: the length table agrees with the encoder
// on both sides of every 7-bit boundary, zero and the largest value.
func TestVarintLenMatchesEncoder(t *testing.T) {
	xs := []uint64{0, math.MaxUint64}
	for b := 1; b < 64; b++ {
		xs = append(xs, 1<<b-1, 1<<b)
	}
	for _, x := range xs {
		if got, want := varintLen(x), int64(len(binary.AppendUvarint(nil, x))); got != want {
			t.Fatalf("varintLen(%d) = %d, the encoder writes %d bytes", x, got, want)
		}
	}
}

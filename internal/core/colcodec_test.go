package core

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"unsafe"

	"github.com/haten2/haten2/internal/gen"
	"github.com/haten2/haten2/internal/matrix"
	"github.com/haten2/haten2/internal/mr"
	"github.com/haten2/haten2/internal/tensor"
)

// The columnar codec's load-bearing invariant is that the incremental
// sizers charge exactly the bytes the encoders produce: the mr engine
// accounts shuffle volume through BlockSizer without ever materializing
// a block, so any drift between sizer and encoder silently corrupts the
// cost model (simulated time, resource limits, the paper's Tables
// III/IV). The tests here pin both directions — sizer == len(encoding),
// and decode ∘ encode == identity — on structured, adversarial, and
// fuzzed inputs, plus the end-to-end form: the bytes a job is charged
// equal the length of the blocks its shuffle would have written.

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

func TestEntryBlockSizerMatchesEncoder(t *testing.T) {
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
		if got, want := int64(len(enc)), EntryBlockSize(es); got != want {
			t.Fatalf("case %d: encoded %d bytes, sizer declared %d", ci, got, want)
		}
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

func TestMatEntryBlockSizerMatchesEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var cells []MatEntry
	for i := 0; i < 500; i++ {
		cells = append(cells, MatEntry{
			Row: rng.Int63n(1 << 40), Col: int32(rng.Intn(1 << 20)), Val: rng.NormFloat64(),
		})
	}
	for _, cs := range [][]MatEntry{nil, cells[:1], cells} {
		enc := AppendMatEntryBlock(nil, cs)
		if got, want := int64(len(enc)), MatEntryBlockSize(cs); got != want {
			t.Fatalf("encoded %d bytes, sizer declared %d", got, want)
		}
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

// checkFileCodec pins a record type's file codec as the engine calls it
// (mr.FileCodec, found on the zero record): FileBlockSize is the length
// AppendFileBlock writes, and DecodeFileBlock gives back recs — compared
// through their re-encoding, which is bit-exact on float payloads.
func checkFileCodec[R any](t *testing.T, recs []R) {
	t.Helper()
	codec, ok := any(*new(R)).(mr.FileCodec)
	if !ok {
		t.Fatalf("%T has no file codec", recs)
	}
	enc := codec.AppendFileBlock(nil, recs)
	if got, want := int64(len(enc)), codec.FileBlockSize(recs); got != want {
		t.Fatalf("%T: encoded %d bytes, sizer declared %d", recs, got, want)
	}
	dec, rest, err := codec.DecodeFileBlock(append(enc, 0xee))
	if err != nil || len(rest) != 1 {
		t.Fatalf("%T: decode: %v, %d trailing", recs, err, len(rest))
	}
	if back, ok := dec.([]R); !ok || len(back) != len(recs) || string(codec.AppendFileBlock(nil, back)) != string(enc) {
		t.Fatalf("%T: decode ∘ encode is not the identity", recs)
	}
}

// TestFileCodecs pins the file codec of every record type a plan
// stages on the DFS, at both tensor orders, on sorted and unsorted
// records with wide deltas, and on no records at all.
func TestFileCodecs(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	wide := func() int64 { return rng.Int63n(1<<40) - 1<<39 }
	for _, n := range []int{0, 1, 700} {
		e3, e4 := make([]Entry, n), make([]EntryOf[[4]int64], n)
		h3, h4 := make([]HEntry, n), make([]HEntryOf[[4]int64], n)
		cells := make([]MatEntry, n)
		for i := 0; i < n; i++ {
			e3[i] = Entry{Idx: [3]int64{int64(i / 50), int64(i % 50), wide()}, Val: rng.NormFloat64()}
			e4[i] = EntryOf[[4]int64]{Idx: [4]int64{int64(i / 50), wide(), int64(i % 7), -int64(i)}, Val: math.NaN()}
			h3[i] = HEntry{Idx: e3[i].Idx, Col: int32(i % 5), Val: rng.NormFloat64()}
			h4[i] = HEntryOf[[4]int64]{Idx: e4[i].Idx, Col: int32(rng.Intn(1 << 20)), Val: math.Inf(-1)}
			cells[i] = MatEntry{Row: wide(), Col: int32(i % 9), Val: rng.NormFloat64()}
		}
		checkFileCodec(t, e3)
		checkFileCodec(t, e4)
		checkFileCodec(t, h3)
		checkFileCodec(t, h4)
		checkFileCodec(t, cells)
	}
}

// svalIncrementalSize folds svalPairSize the way the engine folds a
// BlockSizer: each pair sized against its predecessor, the first
// against zero values, plus the header.
func svalIncrementalSize[I index](keys [][3]int64, vals []sval[I]) int64 {
	var n int64
	var pk [3]int64
	var pv sval[I]
	for i := range keys {
		n += svalPairSize(pk, pv, keys[i], vals[i])
		pk, pv = keys[i], vals[i]
	}
	return n + blockHeaderSize(len(keys))
}

// checkSValBlock pins sizer == encoder and decode ∘ encode == identity
// for the shuffle block of one tensor order.
func checkSValBlock[I index](t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	var keys [][3]int64
	var vals []sval[I]
	for i := 0; i < 800; i++ {
		keys = append(keys, [3]int64{rng.Int63n(1000), rng.Int63n(1000), rng.Int63n(5)})
		v := sval[I]{tag: uint8(rng.Intn(5)), col: int32(rng.Intn(64)), val: rng.NormFloat64()}
		for m := 0; m < len(v.idx); m++ {
			v.idx[m] = rng.Int63n(1000)
		}
		vals = append(vals, v)
	}
	for _, n := range []int{0, 1, 800} {
		enc := appendSValBlock(nil, keys[:n], vals[:n])
		if got, want := int64(len(enc)), svalIncrementalSize(keys[:n], vals[:n]); got != want {
			t.Fatalf("n=%d: encoded %d bytes, incremental sizer declared %d", n, got, want)
		}
		dk, dv, rest, err := decodeSValBlock[I](enc, nil, nil)
		if err != nil || len(rest) != 0 {
			t.Fatalf("n=%d: decode: %v, %d trailing", n, err, len(rest))
		}
		for i := 0; i < n; i++ {
			if dk[i] != keys[i] || dv[i] != vals[i] {
				t.Fatalf("n=%d record %d: got (%v,%+v) want (%v,%+v)", n, i, dk[i], dv[i], keys[i], vals[i])
			}
		}
	}
}

func TestSValBlockSizerMatchesEncoder(t *testing.T) { checkSValBlock[[3]int64](t, 3) }

// TestNSValBlockSizerMatchesEncoder is the same invariant for the N-way
// (order-4) instantiation of the shuffle block.
func TestNSValBlockSizerMatchesEncoder(t *testing.T) { checkSValBlock[[4]int64](t, 4) }

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
// sizer invariant: the shuffle bytes the engine charges as it places
// each pair must equal, to the byte, the blocks the encoder writes for
// the same segments. The encodings are measured where they really
// exist — shipped across the backend seam, one block per non-empty
// segment — so the test assumes nothing about the order in which the
// engine calls Pair and Header. It runs on a multi-reducer cluster, in
// process and across the seam (the charge is the engine's, not the
// backend's), with and without a combiner (whose jobs are charged the
// post-combine volume, sized in the combiner's flatten loop).
func TestColumnarChargeMatchesEncodedBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	entries := randEntries(rng, 2000, 400, true)
	for _, combine := range []bool{false, true} {
		var pairs, headed int64 // Pair calls and the records Header(n) declared
		var mu sync.Mutex
		sizer := *stack3.sizer
		sizer.Pair = func(pk [3]int64, pv sval3, k [3]int64, v sval3) int64 {
			mu.Lock()
			pairs++
			mu.Unlock()
			return svalPairSize(pk, pv, k, v)
		}
		sizer.Header = func(n int) int64 {
			mu.Lock()
			headed += int64(n)
			mu.Unlock()
			return blockHeaderSize(n)
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
			BlockKV:   &sizer,
			OutSize:   yEntrySize,
		}
		if combine {
			job.Combine = func(_ [3]int64, vs []sval3) []sval3 {
				for _, v := range vs[1:] {
					vs[0].val += v.val
				}
				return vs[:1]
			}
		}
		counter := &shipCounter{Loopback: mr.NewLoopback()}
		var stats [2]mr.JobStats
		for i, backend := range []mr.Backend{nil, counter} {
			c := mr.NewCluster(mr.Config{Machines: 2, SlotsPerMachine: 2, Backend: backend})
			if err := mr.WriteFile(c, "in", entries, entrySize); err != nil {
				t.Fatal(err)
			}
			pairs, headed = 0, 0
			_, st, err := mr.Run(c, job)
			if err != nil {
				t.Fatal(err)
			}
			if pairs != st.ShuffleRecords || headed != st.ShuffleRecords {
				t.Fatalf("combine=%v: %d shuffled records, sized by %d Pair calls and declared by Header as %d",
					combine, st.ShuffleRecords, pairs, headed)
			}
			stats[i] = st
		}
		if stats[0] != stats[1] {
			t.Fatalf("combine=%v: the backend moved the job's stats:\n%+v\n%+v", combine, stats[0], stats[1])
		}
		st := stats[0]
		if st.ShuffleBytes != counter.bytes {
			t.Fatalf("combine=%v: engine charged %d shuffle bytes, the %d shipped blocks total %d",
				combine, st.ShuffleBytes, counter.blocks, counter.bytes)
		}
		if combine && st.ShuffleRecords >= int64(len(entries)) {
			t.Fatalf("the combiner shuffled %d of %d records", st.ShuffleRecords, len(entries))
		}
		if !combine && st.ShuffleRecords != int64(len(entries)) {
			t.Fatalf("shuffle records %d, want %d", st.ShuffleRecords, len(entries))
		}
		// And the whole point of the codec: the columnar charge must be
		// strictly below the fixed-width charge for the same shuffle.
		if fixed := st.ShuffleRecords * hEntryBytes; st.ShuffleBytes >= fixed {
			t.Fatalf("combine=%v: columnar charge %d not below fixed-width charge %d", combine, st.ShuffleBytes, fixed)
		}
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
	f.Add(uint8(4), appendHEntryBlock(nil, []HEntry{{Idx: [3]int64{3, 0, 9}, Col: 2, Val: -0.5}, {Idx: [3]int64{3, 1, 0}, Col: 0, Val: 1}}))
	f.Add(uint8(5), appendHEntryBlock(nil, []HEntryOf[[4]int64]{{Idx: [4]int64{1, 2, 3, 1 << 33}, Col: 1 << 30, Val: math.Inf(1)}}))
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
		switch kind % 6 {
		case 0:
			es := make([]Entry, n)
			for i := range es {
				es[i] = Entry{Idx: [3]int64{take(3 * i), take(3*i + 1), take(3*i + 2)}, Val: rng.NormFloat64()}
			}
			enc := AppendEntryBlock(nil, es)
			if int64(len(enc)) != EntryBlockSize(es) {
				t.Fatalf("Entry: encoded %d, declared %d", len(enc), EntryBlockSize(es))
			}
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
			if int64(len(enc)) != MatEntryBlockSize(cs) {
				t.Fatalf("MatEntry: encoded %d, declared %d", len(enc), MatEntryBlockSize(cs))
			}
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
		case 2:
			keys := make([][3]int64, n)
			vals := make([]sval3, n)
			for i := range keys {
				keys[i] = [3]int64{take(6 * i), take(6*i + 1), take(6*i + 2)}
				vals[i] = sval3{
					tag: uint8(take(6*i + 3)),
					idx: [3]int64{take(6*i + 4), take(6*i + 5), rng.Int63n(100)},
					col: int32(rng.Intn(256)),
					val: rng.NormFloat64(),
				}
			}
			enc := appendSValBlock(nil, keys, vals)
			if int64(len(enc)) != svalIncrementalSize(keys, vals) {
				t.Fatalf("sval: encoded %d, declared %d", len(enc), svalIncrementalSize(keys, vals))
			}
			dk, dv, rest, err := decodeSValBlock[[3]int64](enc, nil, nil)
			if err != nil || len(rest) != 0 {
				t.Fatalf("sval round trip: %v, %d trailing", err, len(rest))
			}
			for i := range keys {
				if dk[i] != keys[i] || dv[i].tag != vals[i].tag || dv[i].idx != vals[i].idx ||
					dv[i].col != vals[i].col || math.Float64bits(dv[i].val) != math.Float64bits(vals[i].val) {
					t.Fatalf("sval %d: (%v,%+v) != (%v,%+v)", i, dk[i], dv[i], keys[i], vals[i])
				}
			}
		case 3:
			keys := make([][3]int64, n)
			vals := make([]sval[[4]int64], n)
			for i := range keys {
				keys[i] = [3]int64{take(4 * i), take(4*i + 1), 0}
				var idx [4]int64
				for m := range idx {
					idx[m] = take(4*i + 2 + m)
				}
				vals[i] = sval[[4]int64]{tag: uint8(rng.Intn(5)), idx: idx, col: int32(rng.Intn(256)), val: rng.NormFloat64()}
			}
			enc := appendSValBlock(nil, keys, vals)
			if int64(len(enc)) != svalIncrementalSize(keys, vals) {
				t.Fatalf("order-4 sval: encoded %d, declared %d", len(enc), svalIncrementalSize(keys, vals))
			}
			dk, dv, rest, err := decodeSValBlock[[4]int64](enc, nil, nil)
			if err != nil || len(rest) != 0 {
				t.Fatalf("order-4 sval round trip: %v, %d trailing", err, len(rest))
			}
			for i := range keys {
				if dk[i] != keys[i] || dv[i].tag != vals[i].tag || dv[i].idx != vals[i].idx ||
					dv[i].col != vals[i].col || math.Float64bits(dv[i].val) != math.Float64bits(vals[i].val) {
					t.Fatalf("order-4 sval %d mismatch", i)
				}
			}
		case 4:
			hs := make([]HEntry, n)
			for i := range hs {
				hs[i] = HEntry{Idx: [3]int64{take(4 * i), take(4*i + 1), take(4*i + 2)}, Col: int32(take(4*i + 3)), Val: rng.NormFloat64()}
			}
			checkFileCodec(t, hs)
		case 5:
			hs := make([]HEntryOf[[4]int64], n)
			for i := range hs {
				hs[i] = HEntryOf[[4]int64]{Idx: [4]int64{take(5 * i), take(5*i + 1), take(5*i + 2), take(5*i + 3)}, Col: int32(take(5*i + 4)), Val: rng.NormFloat64()}
			}
			checkFileCodec(t, hs)
		}

		// Backward: arbitrary bytes through the decoders. Acceptance is
		// rare (the count header must be plausible), but whenever a
		// decoder accepts, re-encoding must reproduce the consumed
		// prefix exactly.
		reencodes(t, data, Entry{})
		reencodes(t, data, MatEntry{})
		reencodes(t, data, HEntry{})
		reencodes(t, data, HEntryOf[[4]int64]{})
	})
}

// reencodes is the backward direction of FuzzColumnarRoundTrip for the
// file codec of zero's record type.
func reencodes(t *testing.T, data []byte, zero mr.FileCodec) {
	t.Helper()
	if recs, rest, err := zero.DecodeFileBlock(data); err == nil {
		reenc := zero.AppendFileBlock(nil, recs)
		if consumed := len(data) - len(rest); len(reenc) != consumed || string(reenc) != string(data[:consumed]) {
			t.Fatalf("%T decoder accepted %d bytes but re-encode differs", zero, consumed)
		}
	}
}

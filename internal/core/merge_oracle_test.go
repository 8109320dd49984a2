package core

import (
	"math"
	"math/rand"
	"testing"
)

// The reducers in ops.go match a key's records on pooled, map-free
// scratch. The oracles below are the map-based bodies they replaced,
// kept verbatim (the pooled maps of the old PairwiseMerge unpooled, which
// changes no arithmetic): per-call maps keyed by coordinate, first-seen
// order carried in side slices. The differential tests hold the new
// reducers to them at math.Float64bits and emission order.

func oracleCrossReduce[I index](cols []int32) func([3]int64, []sval[I], func(YEntry)) {
	sides := len(cols)
	type cv struct {
		col int32
		val float64
	}
	return func(key [3]int64, vals []sval[I], emit func(YEntry)) {
		var by [maxOrder - 1]map[I][]cv
		for s := range by[:sides] {
			by[s] = make(map[I][]cv)
		}
		var idxOrder []I
		for _, v := range vals {
			side := by[v.tag-tagT1]
			cells, seen := side[v.idx]
			if !seen && v.tag == tagT1 {
				idxOrder = append(idxOrder, v.idx)
			}
			side[v.idx] = append(cells, cv{v.col, v.val})
		}
		acc := make(map[[2]int32]float64)
		var accOrder [][2]int32
		var left, next []cv // 𝒯′ crossed with every side but the last
	coords:
		for _, idx := range idxOrder {
			left = by[0][idx]
			for s := 1; s < sides-1; s++ {
				cells, ok := by[s][idx]
				if !ok {
					continue coords
				}
				next = next[:0]
				for _, a := range left {
					for _, b := range cells {
						next = append(next, cv{a.col*cols[s] + b.col, a.val * b.val})
					}
				}
				left, next = next, left
			}
			rs, ok := by[sides-1][idx]
			if !ok {
				continue
			}
			for _, qv := range left {
				for _, rv := range rs {
					qr := [2]int32{qv.col, rv.col}
					if _, seen := acc[qr]; !seen {
						accOrder = append(accOrder, qr)
					}
					acc[qr] += qv.val * rv.val
				}
			}
		}
		for _, qr := range accOrder {
			if v := acc[qr]; v != 0 {
				emit(YEntry{I: key[0], Q: qr[0], R: qr[1], Val: v})
			}
		}
	}
}

func oraclePairwiseReduce[I index](sides int) func([3]int64, []sval[I], func(YEntry)) {
	return func(key [3]int64, vals []sval[I], emit func(YEntry)) {
		var acc [maxOrder - 2]map[I]float64
		for s := range acc {
			acc[s] = make(map[I]float64)
		}
		for _, v := range vals {
			if v.tag != tagT1 {
				acc[v.tag-tagT1-1][v.idx] += v.val
			}
		}
		var sum float64
		for _, v := range vals {
			if v.tag == tagT1 {
				term := v.val
				for _, m := range acc[:sides-1] {
					term *= m[v.idx]
				}
				sum += term
			}
		}
		if sum == 0 {
			return
		}
		r := int32(key[1])
		emit(YEntry{I: key[0], Q: r, R: r, Val: sum})
	}
}

func oracleIMHPReduce[I index](key [3]int64, vals []sval[I], emit func(HEntryOf[I])) {
	var row []MatEntry
	for _, v := range vals {
		if v.tag == tagMat {
			row = append(row, MatEntry{Col: v.col, Val: v.val})
		}
	}
	for _, v := range vals {
		if v.tag == tagMat {
			continue
		}
		for _, cell := range row {
			if cell.Val == 0 {
				continue
			}
			emit(HEntryOf[I]{Idx: v.idx, Col: cell.Col, Val: v.val * cell.Val})
		}
	}
}

// mergeGroup generates one key group of n values over sides merge
// sides, and the sides' column counts. Coordinates are drawn from a
// pool of ncoords, so they repeat within a side (where 𝒯′ arrival order
// and first-seen grouping differ); every (side, coordinate) pair is
// dropped with probability ¼, so coordinates go missing from a side;
// values include exact zeros and ±pairs that cancel to zero products and
// sums; arrival alternates between runs of one coordinate (the shape
// IMHP's output has) and a full shuffle.
func mergeGroup[I index](rng *rand.Rand, sides, n, ncoords int) ([]sval[I], []int32) {
	cols := make([]int32, sides)
	for s := range cols {
		cols[s] = 1 + rng.Int31n(5)
	}
	pool := make([]I, ncoords)
	for c := range pool {
		for m := 0; m < len(pool[c]); m++ {
			pool[c][m] = rng.Int63n(1 << uint(1+rng.Intn(40)))
		}
	}
	missing := make([]bool, sides*ncoords)
	for i := range missing[1:] {
		missing[1+i] = rng.Intn(4) == 0 // 𝒯′ keeps its first coordinate, so the draw below ends
	}
	palette := []float64{0, 1, -1, 0.5, -0.5, 3, 0.1, 1e16}
	vals := make([]sval[I], 0, n)
	for len(vals) < n {
		side, c := rng.Intn(sides), rng.Intn(ncoords)
		if missing[side*ncoords+c] {
			continue
		}
		v := sval[I]{tag: tagT1 + uint8(side), idx: pool[c], col: rng.Int31n(cols[side])}
		if rng.Intn(3) == 0 {
			v.val = rng.NormFloat64()
		} else {
			v.val = palette[rng.Intn(len(palette))]
		}
		vals = append(vals, v)
		for run := rng.Intn(4); run > 0 && len(vals) < n; run-- {
			v.col, v.val = rng.Int31n(cols[side]), palette[rng.Intn(len(palette))]
			vals = append(vals, v)
		}
	}
	if rng.Intn(2) == 0 {
		rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	}
	return vals, cols
}

func collect[V, O any](reduce func([3]int64, []V, func(O)), key [3]int64, vals []V) []O {
	var out []O
	reduce(key, vals, func(o O) { out = append(out, o) })
	return out
}

func sameY(a, b []YEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].I != b[i].I || a[i].Q != b[i].Q || a[i].R != b[i].R ||
			math.Float64bits(a[i].Val) != math.Float64bits(b[i].Val) {
			return false
		}
	}
	return true
}

// checkMergeReducers holds both reducers of stack k to their oracles on
// one generated key group. The reducers run twice: the second call
// finds the first one's scratch in the pool.
func checkMergeReducers[I index](t *testing.T, k *stack[I], seed int64, sides, n, ncoords int) {
	t.Helper()
	vals, cols := mergeGroup[I](rand.New(rand.NewSource(seed)), sides, n, ncoords)
	key := [3]int64{seed & 0xffff, int64(cols[0]) - 1, 0}
	wantCross := collect(oracleCrossReduce[I](cols), key, vals)
	wantPair := collect(oraclePairwiseReduce[I](sides), key, vals)
	for rep := 0; rep < 2; rep++ {
		if got := collect(k.crossReduce(cols), key, vals); !sameY(got, wantCross) {
			t.Fatalf("seed %d sides %d n %d coords %d rep %d: CrossMerge emitted\n%v\noracle\n%v", seed, sides, n, ncoords, rep, got, wantCross)
		}
		if got := collect(k.pairwiseReduce(sides), key, vals); !sameY(got, wantPair) {
			t.Fatalf("seed %d sides %d n %d coords %d rep %d: PairwiseMerge emitted\n%v\noracle\n%v", seed, sides, n, ncoords, rep, got, wantPair)
		}
	}
}

// mergeCases are the group shapes the differential test sweeps and the
// fuzz target is seeded with: {values, coordinate pool}.
var mergeCases = [][2]int{{1, 1}, {2, 1}, {7, 2}, {40, 3}, {40, 40}, {300, 9}, {300, 200}, {5000, 70}, {5000, 1500}}

func TestMergeReducersMatchOracle(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		for _, c := range mergeCases {
			checkMergeReducers(t, stack3, seed, 2, c[0], c[1])
			checkMergeReducers(t, stack4, seed, 3, c[0], c[1])
		}
	}
}

// FuzzMergeReducers drives the same generator from fuzzed parameters.
func FuzzMergeReducers(f *testing.F) {
	for i, c := range mergeCases {
		f.Add(int64(i), i%2 == 0, uint16(c[0]), uint16(c[1]))
	}
	f.Fuzz(func(t *testing.T, seed int64, order4 bool, n, ncoords uint16) {
		nv, nc := 1+int(n)%5000, 1+int(ncoords)%2000
		if order4 {
			checkMergeReducers(t, stack4, seed, 3, nv, nc)
		} else {
			checkMergeReducers(t, stack3, seed, 2, nv, nc)
		}
	})
}

// imhpGroup is one IMHP key group: a factor row of r cells (every third
// one zero) followed by n fiber entries of side 0.
func imhpGroup(r, n int) []sval3 {
	vals := make([]sval3, 0, r+n)
	for q := 0; q < r; q++ {
		vals = append(vals, sval3{tag: tagMat, col: int32(q), val: float64(q%3) - 0.5*float64(q%2)})
	}
	for e := 0; e < n; e++ {
		vals = append(vals, sval3{tag: tagT1, idx: [3]int64{int64(e), 7, int64(e * e)}, val: 1 + float64(e)/8})
	}
	return vals
}

func TestIMHPReduceMatchesOracle(t *testing.T) {
	key := [3]int64{1, 7, 0}
	for _, shape := range [][2]int{{0, 3}, {1, 1}, {8, 1}, {8, 40}, {3, 0}} {
		vals := imhpGroup(shape[0], shape[1])
		want := collect(oracleIMHPReduce[[3]int64], key, vals)
		got := collect(stack3.imhpReduce, key, vals)
		if len(got) != len(want) {
			t.Fatalf("row %d fiber %d: %d records, oracle %d", shape[0], shape[1], len(got), len(want))
		}
		for i := range got {
			if got[i].Idx != want[i].Idx || got[i].Col != want[i].Col ||
				math.Float64bits(got[i].Val) != math.Float64bits(want[i].Val) {
				t.Fatalf("row %d fiber %d: record %d is %+v, oracle %+v", shape[0], shape[1], i, got[i], want[i])
			}
		}
	}
}

// TestIMHPReduceAllocs pins the factor row in pooled scratch: the
// reducer used to grow a fresh []MatEntry per key (four growth steps at
// R = 8, 1.49 M mallocs per tall_parafac pass).
func TestIMHPReduceAllocs(t *testing.T) {
	vals := imhpGroup(8, 3)
	var sink HEntry
	emit := func(o HEntry) { sink = o }
	reduce := func() { stack3.imhpReduce([3]int64{1, 7, 0}, vals, emit) }
	reduce() // warm: the scratch and its row now sit in the pool
	allocs := testing.AllocsPerRun(200, reduce)
	if raceEnabled {
		// The race detector makes sync.Pool drop a quarter of its Puts.
		t.Logf("%.0f allocs per warm call under -race (not asserted)", allocs)
	} else if allocs != 0 {
		t.Fatalf("warm IMHP reducer allocates %.0f times per call, want 0", allocs)
	}
	_ = sink
}

package serve

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/haten2/haten2/internal/matrix"
)

// sortTopK is the obviously-correct reference the selection and merge
// kernels are checked against: score everything, full sort under the
// repo-wide total order, truncate.
func sortTopK(scores []float64, base int64, k int) []Result {
	all := make([]Result, len(scores))
	for i, s := range scores {
		all[i] = Result{Index: base + int64(i), Score: s}
	}
	sort.Slice(all, func(i, j int) bool { return better(all[i], all[j]) })
	if k > len(all) {
		k = len(all)
	}
	if k < 0 {
		k = 0
	}
	return all[:k]
}

func resultsEqual(a, b []Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Index != b[i].Index ||
			math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}

func TestSelectTopKMatchesSort(t *testing.T) {
	cases := []struct {
		name   string
		scores []float64
		k      int
	}{
		{"basic", []float64{0.5, 2, -1, 2, 0.5, 3}, 3},
		{"all ties", []float64{1, 1, 1, 1}, 2},
		{"k larger than input", []float64{3, 1, 2}, 10},
		{"k zero", []float64{3, 1, 2}, 0},
		{"empty", nil, 4},
		{"negatives and zero", []float64{-1, 0, -0.5, -2, 0}, 4},
		{"single", []float64{7}, 1},
	}
	for _, tc := range cases {
		got := SelectTopK(nil, tc.scores, 100, tc.k)
		want := sortTopK(tc.scores, 100, tc.k)
		if !resultsEqual(got, want) {
			t.Errorf("%s: SelectTopK = %v, want %v", tc.name, got, want)
		}
	}
}

func TestSelectTopKTieBreakIsIndexOrder(t *testing.T) {
	got := SelectTopK(nil, []float64{5, 5, 5, 5, 5}, 0, 3)
	for i, r := range got {
		if r.Index != int64(i) {
			t.Fatalf("tie at rank %d went to index %d, want %d", i, r.Index, i)
		}
	}
}

func TestSelectTopKReusesDst(t *testing.T) {
	buf := make([]Result, 0, 8)
	got := SelectTopK(buf, []float64{1, 3, 2}, 0, 2)
	if &got[:1][0] != &buf[:1][0] {
		t.Fatal("SelectTopK did not reuse the provided buffer")
	}
	if got[0].Index != 1 || got[1].Index != 2 {
		t.Fatalf("got %v", got)
	}
}

// TestSelectTopKNaNMatchesHeapOrder pins NaN scores — which have no
// place in the ranking order — to the order the heap produces, as the
// heap did when it called better on every entry: a NaN never displaces
// the root, and a NaN root is never displaced.
func TestSelectTopKNaNMatchesHeapOrder(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		scores []float64
		k      int
		want   []int64
	}{
		{[]float64{1, nan, 3, 2}, 2, []int64{1, 2}},
		{[]float64{1, nan, 3, 2}, 3, []int64{1, 2, 3}},
		{[]float64{nan, 5, 4, 9}, 2, []int64{1, 0}},
		{[]float64{nan, 5, 4, 9}, 3, []int64{1, 2, 0}},
		{[]float64{2, 1, nan, nan, 3}, 2, []int64{4, 0}},
		{[]float64{2, 1, nan, nan, 3}, 3, []int64{4, 2, 0}},
		{[]float64{nan, 1, nan, 2, 7, nan, 0}, 3, []int64{1, 2, 0}},
	} {
		got := SelectTopK(nil, tc.scores, 0, tc.k)
		for i, r := range got {
			if r.Index != tc.want[i] {
				t.Fatalf("%v k=%d: got %v, want indexes %v", tc.scores, tc.k, got, tc.want)
			}
		}
	}
}

// BenchmarkSelectTopK selects k = 10 from one 32,768-row shard's scores.
func BenchmarkSelectTopK(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	scores := make([]float64, 32768)
	for i := range scores {
		scores[i] = rng.NormFloat64()
	}
	dst := make([]Result, 0, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = SelectTopK(dst[:0], scores, 0, 10)
	}
}

// shardAndMerge splits scores into n contiguous shards, selects each
// shard's top-k, and merges — the server's exact dataflow.
func shardAndMerge(scores []float64, shards, k int) []Result {
	parts := make([][]Result, shards)
	for sh := 0; sh < shards; sh++ {
		lo := sh * len(scores) / shards
		hi := (sh + 1) * len(scores) / shards
		parts[sh] = SelectTopK(nil, scores[lo:hi], int64(lo), k)
	}
	out, _, _ := MergeTopK(nil, parts, k, nil, nil)
	return out
}

func TestMergeTopKMatchesSort(t *testing.T) {
	scores := []float64{0.3, 9, -2, 9, 4, 4, 0, 7, 7, 7, -5, 1, 2, 9}
	for shards := 1; shards <= 6; shards++ {
		for k := 0; k <= len(scores)+1; k++ {
			got := shardAndMerge(scores, shards, k)
			want := sortTopK(scores, 0, k)
			if !resultsEqual(got, want) {
				t.Fatalf("shards=%d k=%d: got %v want %v", shards, k, got, want)
			}
		}
	}
}

func TestMergeTopKEmptyShards(t *testing.T) {
	parts := [][]Result{nil, {{Index: 3, Score: 1}}, nil}
	got, _, _ := MergeTopK(nil, parts, 5, nil, nil)
	if len(got) != 1 || got[0].Index != 3 {
		t.Fatalf("got %v", got)
	}
	got, _, _ = MergeTopK(nil, [][]Result{nil, nil}, 2, nil, nil)
	if len(got) != 0 {
		t.Fatalf("all-empty merge returned %v", got)
	}
}

func TestMergeTopKScratchReuse(t *testing.T) {
	scores := []float64{5, 1, 8, 2, 9, 0, 3, 7}
	parts := make([][]Result, 4)
	for sh := 0; sh < 4; sh++ {
		lo, hi := sh*2, sh*2+2
		parts[sh] = SelectTopK(nil, scores[lo:hi], int64(lo), 3)
	}
	var heads, pos []int
	var dst []Result
	for i := 0; i < 3; i++ {
		dst, heads, pos = MergeTopK(dst[:0], parts, 3, heads, pos)
		want := sortTopK(scores, 0, 3)
		if !resultsEqual(dst, want) {
			t.Fatalf("pass %d: got %v want %v", i, dst, want)
		}
	}
}

func TestColumnTopKNormalizes(t *testing.T) {
	m := matrix.FromRows([][]float64{{0.1}, {-0.9}, {0.5}, {0.2}})
	top, _ := ColumnTopK(nil, m, 0, nil, 2, nil)
	if top[0].Index != 1 || top[1].Index != 2 {
		t.Fatalf("unnormalized top = %v", top)
	}
	// A tiny row total makes row 0 dominate after normalization.
	totals := []float64{0.1, 10, 10, 10}
	top, _ = ColumnTopK(nil, m, 0, totals, 1, nil)
	if top[0].Index != 0 {
		t.Fatalf("normalized top = %v", top)
	}
}

// TestTopEntities pins the behavior gen.TopEntities had before it moved
// here onto the shared selection kernel.
func TestTopEntities(t *testing.T) {
	labels := []string{"a", "b", "c", "d"}
	col := []float64{0.1, -0.9, 0.5, 0.2}
	got := TopEntities(labels, col, nil, 2)
	if got[0] != "b" || got[1] != "c" {
		t.Fatalf("top = %v", got)
	}
	totals := []float64{0.1, 10, 10, 10}
	got = TopEntities(labels, col, totals, 1)
	if got[0] != "a" {
		t.Fatalf("normalized top = %v", got)
	}
	if n := len(TopEntities(labels, col, nil, 99)); n != 4 {
		t.Fatalf("clamp failed: %d", n)
	}
}

// FuzzShardMerge drives arbitrary score vectors, shard counts, and k
// through the shard-select-merge pipeline and requires the result to
// match the sort-based reference exactly — the merge heap must be a
// total-order selection no matter how scores collide or shards split.
func FuzzShardMerge(f *testing.F) {
	f.Add([]byte{3, 2, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Add([]byte{1, 1})
	f.Add([]byte{10, 5, 0x3f, 0xf0, 0, 0, 0, 0, 0, 0, 0x3f, 0xf0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		k := int(data[0] % 12)
		shards := int(data[1]%6) + 1
		data = data[2:]
		scores := make([]float64, 0, len(data)/8)
		for len(data) >= 8 {
			v := math.Float64frombits(binary.LittleEndian.Uint64(data[:8]))
			if math.IsNaN(v) {
				v = 0 // NaN has no place in a total order; the scorers never produce it
			}
			scores = append(scores, v)
			data = data[8:]
		}
		if shards > len(scores) && len(scores) > 0 {
			shards = len(scores)
		}
		if len(scores) == 0 {
			shards = 1
		}
		got := shardAndMerge(scores, shards, k)
		want := sortTopK(scores, 0, k)
		if !resultsEqual(got, want) {
			t.Fatalf("k=%d shards=%d scores=%v:\n got %v\nwant %v", k, shards, scores, got, want)
		}
	})
}

// Package serve is the factor-serving layer: it loads the factor
// matrices a decomposition produced and answers top-k queries over them
// under heavy traffic. The paper's motivating applications — concept
// discovery in knowledge bases, intrusion detection in network logs
// (§IV-C) — are exactly this workload: given a (subject, predicate)
// pair, rank objects by the model's predicted strength; given an
// entity, rank the concepts it belongs to.
//
// The performance architecture (DESIGN.md §3h): the object factor
// matrix is sharded row-wise across persistent worker goroutines; each
// shard holds its rows in descending norm order, scores them in blocks
// into a bounded heap and stops once Cauchy–Schwarz shows no later row
// can reach the k-th score; partials are merged on a k-way heap; results
// are cached in per-shard LRU stripes with single-flight coalescing of
// duplicate in-flight queries; and a dispatcher hands concurrent queries
// to the workers in batches. The steady-state query path performs no
// allocations (pinned by AllocsPerRun tests).
//
// The engine's standing invariant carries over: sharding, batching and
// caching may change wall-clock time and counters, never the returned
// rankings. Every top-k path uses one total order — higher score first,
// equal scores broken by lower index — so results are bit-identical
// across GOMAXPROCS and shard counts, and identical to the
// single-threaded reference scorer in internal/baseline.
package serve

import (
	"math"

	"github.com/haten2/haten2/internal/matrix"
)

// Result is one ranked answer: the row (entity or component) index and
// its score.
type Result struct {
	Index int64
	Score float64
}

// better reports whether a ranks strictly ahead of b. This is the one
// total order every top-k path in the repository uses: higher score
// first, equal scores broken by lower index (DESIGN.md §3h). The
// index tie-break is what makes cross-shard merges and the
// GOMAXPROCS × shard-count bit-identity tests deterministic.
func better(a, b Result) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Index < b.Index
}

// SelectTopK appends the k best entries of scores to dst (usually
// dst[:0] of a reused buffer) and returns it, best first. Entry i gets
// index base+i; every production caller passes base 0, and a shard maps
// the positions it selects through its own index list. The selection
// keeps a bounded worst-at-root heap of size k —
// O(n log k), no allocation beyond dst's growth — and heap-sorts it
// into descending rank order at the end.
//
// Once the heap is full every later entry has a higher index than any
// it holds, so better(entry, root) is exactly score > root.Score, NaN
// included: the scan compares with the root's score held in a local.
func SelectTopK(dst []Result, scores []float64, base int64, k int) []Result {
	k = min(k, len(scores))
	if k <= 0 {
		return dst
	}
	h := dst[:0]
	for i, s := range scores[:k] {
		h = append(h, Result{Index: base + int64(i), Score: s})
		siftUp(h, i)
	}
	root := h[0].Score
	for i, s := range scores[k:] {
		if s > root {
			h[0] = Result{Index: base + int64(k+i), Score: s}
			siftDown(h, 0, k)
			root = h[0].Score
		}
	}
	return sortHeap(h)
}

// sortHeap heap-sorts a worst-at-root heap in place into best-first
// order by repeatedly swapping the worst root to the end.
func sortHeap(h []Result) []Result {
	for end := len(h) - 1; end > 0; end-- {
		h[0], h[end] = h[end], h[0]
		siftDown(h, 0, end)
	}
	return h
}

// normBound returns a certified upper bound on ‖x‖₂: 0 for an all-zero
// x, NaN or +Inf for an x that holds one, and otherwise a finite or
// +Inf value no smaller than the exact norm. The entries are scaled by
// the power of two that brings the largest magnitude into [½, 1), so no
// square overflows and no significant one underflows; the relative
// slack (R+2)·2⁻⁵² covers the rounding of the squares, the sum and the
// square root, and rounding the result up one ulp covers a subnormal
// norm.
func normBound(x []float64) float64 {
	var m float64
	for _, v := range x {
		m = max(m, math.Abs(v))
	}
	if !(m > 0 && m <= math.MaxFloat64) {
		return m
	}
	_, e := math.Frexp(m)
	var s float64
	for _, v := range x {
		y := math.Ldexp(v, -e)
		s += y * y
	}
	return math.Nextafter(math.Ldexp(math.Sqrt(s)*(1+float64(len(x)+2)*0x1p-52), e), math.Inf(1))
}

// siftUp restores the worst-at-root property after appending at i.
func siftUp(h []Result, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !better(h[parent], h[i]) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// siftDown restores the worst-at-root property for h[:end] after
// replacing the root.
func siftDown(h []Result, i, end int) {
	for {
		worst := i
		if l := 2*i + 1; l < end && better(h[worst], h[l]) {
			worst = l
		}
		if r := 2*i + 2; r < end && better(h[worst], h[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// MergeTopK merges per-shard partial top-k lists (each sorted best
// first, as SelectTopK returns them) into the global top-k, appended to
// dst. The merge runs a k-way heap over the shard heads: heap entries
// are shard numbers ordered by their current head result, so each of
// the k output steps costs O(log shards). Shards cover disjoint index
// ranges, so the index tie-break in better makes the merge a total
// order and the output independent of the shard count.
//
// heads and pos are caller-provided scratch (grown as needed) so the
// steady-state merge allocates nothing; pass nil for one-off calls.
func MergeTopK(dst []Result, parts [][]Result, k int, heads, pos []int) ([]Result, []int, []int) {
	if len(parts) == 1 {
		// Single shard: its partial already is the answer.
		return append(dst, parts[0][:min(k, len(parts[0]))]...), heads, pos
	}
	if cap(heads) < len(parts) {
		heads = make([]int, 0, len(parts))
		pos = make([]int, len(parts))
	}
	heads = heads[:0]
	pos = pos[:len(parts)]
	head := func(sh int) Result { return parts[sh][pos[sh]] }
	for sh := range parts {
		pos[sh] = 0
		if len(parts[sh]) == 0 {
			continue
		}
		heads = append(heads, sh)
		// Sift up under best-at-root ordering.
		for i := len(heads) - 1; i > 0; {
			parent := (i - 1) / 2
			if !better(head(heads[i]), head(heads[parent])) {
				break
			}
			heads[i], heads[parent] = heads[parent], heads[i]
			i = parent
		}
	}
	for k > 0 && len(heads) > 0 {
		sh := heads[0]
		dst = append(dst, head(sh))
		k--
		pos[sh]++
		if pos[sh] >= len(parts[sh]) {
			heads[0] = heads[len(heads)-1]
			heads = heads[:len(heads)-1]
		}
		// Sift down under best-at-root ordering.
		for i := 0; ; {
			best := i
			if l := 2*i + 1; l < len(heads) && better(head(heads[l]), head(heads[best])) {
				best = l
			}
			if r := 2*i + 2; r < len(heads) && better(head(heads[r]), head(heads[best])) {
				best = r
			}
			if best == i {
				break
			}
			heads[i], heads[best] = heads[best], heads[i]
			i = best
		}
	}
	return dst, heads, pos
}

// ColumnTopK ranks the rows of one factor-matrix column by normalized
// magnitude |m(i,col)|/totals[i] — the §IV-C presentation used by the
// discovery tables — and appends the top k to dst via the shared
// selection kernel. totals may be nil to skip normalization; scratch is
// a reusable score buffer (pass nil for one-off calls).
func ColumnTopK(dst []Result, m *matrix.Matrix, col int, totals []float64, k int, scratch []float64) ([]Result, []float64) {
	if cap(scratch) < m.Rows {
		scratch = make([]float64, m.Rows)
	}
	scratch = scratch[:m.Rows]
	for i := 0; i < m.Rows; i++ {
		v := math.Abs(m.At(i, col))
		if totals != nil && totals[i] > 0 {
			v /= totals[i]
		}
		scratch[i] = v
	}
	return SelectTopK(dst, scratch, 0, k), scratch
}

// TopEntities returns the labels of the k best rows of one factor
// column, normalized by per-row totals — the presentation of Tables VI
// and VII ("mitigate the effects of dominant terms", §IV-C). It is the
// label-returning convenience over the same selection kernel the server
// and the discovery tables use.
func TopEntities(labels []string, col []float64, rowTotals []float64, k int) []string {
	scores := make([]float64, len(col))
	for i, v := range col {
		nv := math.Abs(v)
		if rowTotals != nil && rowTotals[i] > 0 {
			nv /= rowTotals[i]
		}
		scores[i] = nv
	}
	top := SelectTopK(nil, scores, 0, k)
	out := make([]string, len(top))
	for i, r := range top {
		out[i] = labels[r.Index]
	}
	return out
}

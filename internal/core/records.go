// Package core implements HaTen2, the paper's contribution: distributed
// MapReduce plans for the bottleneck operations of Tucker and PARAFAC
// decomposition — the n-mode matrix product chain 𝒳 ×₂Bᵀ ×₃Cᵀ and the
// matricized-tensor Khatri-Rao product 𝒳₍₁₎(C⊙B) — in four variants of
// increasing refinement (Table II of the paper):
//
//	Naive  one broadcast-style job per n-mode vector product (Alg. 3, 4)
//	DNN    decoupled Hadamard-and-Merge steps (Alg. 5, 6)
//	DRN    dependency removal via CrossMerge / PairwiseMerge (Alg. 7, 8)
//	DRI    job integration via IMHP: exactly two jobs (Alg. 9, 10)
//
// The paper states its operators for N-way tensors and observes that
// PARAFAC and Tucker differ only in the final merge, and the package is
// built the same way: one record family and one set of jobs,
// instantiated per tensor order (3 and 4; the 3-way case is N = 3, not
// a separate stack) and parameterised by the merge operator; one ALS
// loop (als.go) that ParafacALS (Algorithm 1), TuckerALS (Algorithm 2)
// and the paper's stated future-work extensions (nonnegative and masked
// PARAFAC) instantiate with their update rule; and one shuffle codec
// (colcodec.go) every job is charged through.
package core

import (
	"fmt"

	"github.com/haten2/haten2/internal/matrix"
	"github.com/haten2/haten2/internal/mr"
	"github.com/haten2/haten2/internal/tensor"
)

// maxOrder is the largest tensor order the plans support — the order of
// the paper's motivating (source-ip, target-ip, port, timestamp) logs.
const maxOrder = 4

// index is a tensor coordinate, one int64 per mode. Records and jobs
// are instantiated once per supported order, so an order-3 record is
// exactly as wide as its coordinate.
type index interface{ [3]int64 | [4]int64 }

// EntryOf is one nonzero of a tensor as staged on the DFS:
// ⟨i, j, k, 𝒳(i,j,k)⟩ in the paper's notation.
type EntryOf[I index] struct {
	Idx I
	Val float64
}

// Entry is the 3-way EntryOf.
type Entry = EntryOf[[3]int64]

// MatEntry is one cell of a factor matrix: ⟨row, col, value⟩.
type MatEntry struct {
	Row int64
	Col int32
	Val float64
}

// HEntryOf is one nonzero of a Hadamard-product intermediate (𝒯′ or
// 𝒯″): the original tensor coordinate plus the appended factor-column
// index (Definition 5: the result of ∗ₙ has one extra mode).
type HEntryOf[I index] struct {
	Idx I
	Col int32
	Val float64
}

// HEntry is the 3-way HEntryOf.
type HEntry = HEntryOf[[3]int64]

// YEntry is one entry of a contracted result, matricized along the
// updated mode: row I, and the column indexes of the multiplied modes —
// R for the last of them, Q for the others flattened row-major. On a
// 3-way tensor that is Tucker's 𝒴(i, q, r); PARAFAC's 𝒴(i, r) has
// Q == R.
type YEntry struct {
	I    int64
	Q, R int32
	Val  float64
}

// Fixed record widths in bytes of the 3-way records (each further mode
// adds 8). They price what is never block-encoded: DFS files, job
// outputs, and the Naive plan's phantom broadcast copies. Shuffles are
// charged what the columnar codec really writes (colcodec.go).
const (
	entryBytes    = 32 // 3×int64 + float64
	matEntryBytes = 20 // int64 + int32 + float64
	hEntryBytes   = 36 // 3×int64 + int32 + float64
	yEntryBytes   = 24 // int64 + 2×int32 + float64
)

// Package-level size functions for the record types above. Every job a
// plan runs passes these as its OutSize callbacks; hoisting them here
// (instead of building a fresh closure at each call site) keeps the
// per-record accounting calls allocation-free and lets all jobs of an
// ALS run share the same function values.
func entrySize[I index](e EntryOf[I]) int64   { return entryBytes + 8*int64(len(e.Idx)-3) }
func hEntrySize[I index](h HEntryOf[I]) int64 { return hEntryBytes + 8*int64(len(h.Idx)-3) }
func matEntrySize(MatEntry) int64             { return matEntryBytes }
func yEntrySize(YEntry) int64                 { return yEntryBytes }

// sval is the single shuffle value type every HaTen2 job uses, tagged by
// which input the record came from. Fields run widest first, so the
// value packs to 40 bytes at order 3 (48 at order 4) and the engine's
// 72-byte pair is copied with inline moves; the codec names fields, so
// the order is layout only.
type sval[I index] struct {
	idx I
	val float64
	col int32
	tag uint8 // tagTensor, tagMat, or tagT1+s for side s of a merge
}

const (
	tagTensor = uint8(iota)
	tagMat
	tagT1 // 𝒯′; the 𝒯″ sides follow (tagT1+1, …)
)

// Staged is an input tensor written to a cluster's DFS together with the
// metadata the job planners need (shape, nnz, and — for the Naive
// variant's broadcast emulation — the distinct fiber keys per mode).
type Staged struct {
	Name string
	Dims []int64
	NNZ  int64

	cluster *mr.Cluster
	// fibers[m] caches the distinct coordinate pairs of modes ≠ m, i.e.
	// the reducer keys of the (3-way) Naive plan's broadcast for mode m.
	fibers [3][][2]int64
}

// Stage writes a coalesced tensor of order 3 or 4 to the cluster DFS
// under name and returns its handle. Decomposition drivers and
// benchmarks stage the tensor once and run many jobs against it.
func Stage(c *mr.Cluster, name string, x *tensor.Tensor) (*Staged, error) {
	var write func(*mr.Cluster, string, *tensor.Tensor) error
	switch x.Order() {
	case 3:
		write = writeEntries[[3]int64]
	case 4:
		write = writeEntries[[4]int64]
	default:
		return nil, fmt.Errorf("core: Stage supports tensors of order 3 to %d, got order %d", maxOrder, x.Order())
	}
	x.Coalesce()
	if err := write(c, name, x); err != nil {
		return nil, err
	}
	return &Staged{Name: name, Dims: x.Dims(), NNZ: int64(x.NNZ()), cluster: c}, nil
}

func writeEntries[I index](c *mr.Cluster, name string, x *tensor.Tensor) error {
	entries := make([]EntryOf[I], x.NNZ())
	for p := range entries {
		e := &entries[p]
		for m, i := range x.Index(p) {
			e.Idx[m] = i
		}
		e.Val = x.Value(p)
	}
	return mr.WriteFileOwned(c, name, entries, entrySize[I])
}

// Cluster returns the cluster the tensor is staged on.
func (s *Staged) Cluster() *mr.Cluster { return s.cluster }

// cleanup deletes temporary DFS files, ignoring absent ones.
func (s *Staged) cleanup(files []string) {
	for _, f := range files {
		if s.cluster.FS().Exists(f) {
			// Exists-guarded, so ErrNotExist (Delete's only error) is
			// impossible; this defer-path has no caller to report to.
			//haten2:allow errcheck-io best-effort temp cleanup, Delete can only return ErrNotExist and the file was just checked
			_ = s.cluster.FS().Delete(f)
		}
	}
}

// others returns the modes ≠ n of an order-N tensor in ascending order.
func others(order, n int) []int {
	out := make([]int, 0, order-1)
	for m := 0; m < order; m++ {
		if m != n {
			out = append(out, m)
		}
	}
	return out
}

// otherModes is others for the 3-way-only Naive and DNN plans.
func otherModes(n int) (int, int) {
	o := others(3, n)
	return o[0], o[1]
}

// distinctPairs returns the distinct (a, b) coordinate pairs of entries
// in first-seen order — the fiber keys a Naive broadcast targets.
func distinctPairs(entries []Entry, a, b int) [][2]int64 {
	seen := make(map[[2]int64]struct{})
	var keys [][2]int64
	for _, e := range entries {
		k := [2]int64{e.Idx[a], e.Idx[b]}
		if _, ok := seen[k]; !ok {
			seen[k] = struct{}{}
			keys = append(keys, k)
		}
	}
	return keys
}

// fiberKeys returns the distinct coordinate pairs over the modes other
// than m present in the staged 3-way tensor, reading the staged file
// once. The Naive plan broadcasts the factor vector to these keys.
func (s *Staged) fiberKeys(m int) ([][2]int64, error) {
	if s.fibers[m] != nil {
		return s.fibers[m], nil
	}
	entries, err := mr.ReadFile[Entry](s.cluster, s.Name)
	if err != nil {
		return nil, err
	}
	m1, m2 := otherModes(m)
	s.fibers[m] = distinctPairs(entries, m1, m2)
	return s.fibers[m], nil
}

// stageMatrix writes a factor matrix to the DFS as per-cell records,
// replacing any previous file of the same name (the per-iteration factor
// update pattern).
func stageMatrix(c *mr.Cluster, name string, m *matrix.Matrix) error {
	cells := make([]MatEntry, 0, m.Rows*m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			cells = append(cells, MatEntry{Row: int64(i), Col: int32(j), Val: v})
		}
	}
	return mr.WriteFileOwned(c, name, cells, matEntrySize)
}

// stageColumn writes one column of a factor matrix (the per-column jobs
// of the Naive, DNN and DRN variants read single columns).
func stageColumn(c *mr.Cluster, name string, m *matrix.Matrix, col int) error {
	cells := make([]MatEntry, 0, m.Rows)
	for i := 0; i < m.Rows; i++ {
		cells = append(cells, MatEntry{Row: int64(i), Col: int32(col), Val: m.At(i, col)})
	}
	return mr.WriteFileOwned(c, name, cells, matEntrySize)
}

// Package tensor implements sparse N-way tensors in coordinate (COO)
// format, the PARAFAC and Tucker models, and the in-memory references
// the distributed plans are tested against: the n-mode matrix product,
// matricization, and MTTKRP. The paper's Hadamard and Collapse operators
// (Definitions 1, 2 and 5) run only as MapReduce jobs in internal/core;
// their in-memory statements live in this package's tests.
//
// Indices are int64 so the types describe billion-scale tensors faithfully
// even though the in-process simulator works on scaled-down instances.
// Storage is struct-of-arrays with a flat index slice (stride = Order) to
// keep per-entry overhead at Order×8+8 bytes with no per-entry allocation.
package tensor

import (
	"fmt"
	"math"
	"sort"
)

// Tensor is a sparse N-way tensor in coordinate format.
// The zero value is unusable; create tensors with New.
type Tensor struct {
	dims []int64
	// idx stores entry coordinates back to back:
	// entry p occupies idx[p*order : (p+1)*order].
	idx []int64
	val []float64
}

// New returns an empty sparse tensor with the given mode sizes.
// It panics if no dims are given or any dim is nonpositive.
func New(dims ...int64) *Tensor {
	if len(dims) == 0 {
		panic("tensor: New requires at least one mode")
	}
	for i, d := range dims {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: mode %d has nonpositive size %d", i, d))
		}
	}
	ds := make([]int64, len(dims))
	copy(ds, dims)
	return &Tensor{dims: ds}
}

// Order returns the number of modes (ways) of the tensor.
func (t *Tensor) Order() int { return len(t.dims) }

// Dims returns a copy of the mode sizes.
func (t *Tensor) Dims() []int64 {
	out := make([]int64, len(t.dims))
	copy(out, t.dims)
	return out
}

// Dim returns the size of mode n.
func (t *Tensor) Dim(n int) int64 { return t.dims[n] }

// NNZ returns the number of stored entries. After Coalesce this is the
// number of distinct nonzero coordinates, i.e. nnz(𝒳) in the paper.
func (t *Tensor) NNZ() int { return len(t.val) }

// Append adds an entry at the given coordinates. Duplicates are permitted
// and are summed by Coalesce. It panics on arity or bounds violations.
func (t *Tensor) Append(v float64, coords ...int64) {
	if len(coords) != len(t.dims) {
		panic(fmt.Sprintf("tensor: Append got %d coords for order-%d tensor", len(coords), len(t.dims)))
	}
	for m, c := range coords {
		if c < 0 || c >= t.dims[m] {
			panic(fmt.Sprintf("tensor: coordinate %d out of range [0,%d) on mode %d", c, t.dims[m], m))
		}
	}
	t.idx = append(t.idx, coords...)
	t.val = append(t.val, v)
}

// Index returns the coordinates of entry p as a slice aliasing internal
// storage; callers must not mutate it.
func (t *Tensor) Index(p int) []int64 {
	o := len(t.dims)
	return t.idx[p*o : (p+1)*o : (p+1)*o]
}

// Value returns the value of entry p.
func (t *Tensor) Value(p int) float64 { return t.val[p] }

// SetValue overwrites the value of entry p.
func (t *Tensor) SetValue(p int, v float64) { t.val[p] = v }

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := New(t.dims...)
	c.idx = append([]int64(nil), t.idx...)
	c.val = append([]float64(nil), t.val...)
	return c
}

// less compares the coordinates of entries p and q lexicographically.
func (t *Tensor) less(p, q int) bool {
	o := len(t.dims)
	a := t.idx[p*o : (p+1)*o]
	b := t.idx[q*o : (q+1)*o]
	for m := 0; m < o; m++ {
		if a[m] != b[m] {
			return a[m] < b[m]
		}
	}
	return false
}

func (t *Tensor) sameIndex(p, q int) bool {
	o := len(t.dims)
	a := t.idx[p*o : (p+1)*o]
	b := t.idx[q*o : (q+1)*o]
	for m := 0; m < o; m++ {
		if a[m] != b[m] {
			return false
		}
	}
	return true
}

// Sort orders the entries lexicographically by coordinates.
func (t *Tensor) Sort() {
	o := len(t.dims)
	perm := make([]int, len(t.val))
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool { return t.less(perm[a], perm[b]) })
	nidx := make([]int64, len(t.idx))
	nval := make([]float64, len(t.val))
	for dst, src := range perm {
		copy(nidx[dst*o:(dst+1)*o], t.idx[src*o:(src+1)*o])
		nval[dst] = t.val[src]
	}
	t.idx, t.val = nidx, nval
}

// Coalesce sorts the entries, sums duplicates, and drops explicit zeros.
// After Coalesce the tensor is in canonical form: sorted, unique, nonzero.
func (t *Tensor) Coalesce() {
	if len(t.val) == 0 {
		return
	}
	t.Sort()
	o := len(t.dims)
	w := 0 // write cursor
	for r := 0; r < len(t.val); {
		sum := t.val[r]
		r2 := r + 1
		for r2 < len(t.val) && t.sameIndex(r, r2) {
			sum += t.val[r2]
			r2++
		}
		if sum != 0 {
			copy(t.idx[w*o:(w+1)*o], t.idx[r*o:(r+1)*o])
			t.val[w] = sum
			w++
		}
		r = r2
	}
	t.idx = t.idx[:w*o]
	t.val = t.val[:w]
}

// At returns the value at the given coordinates, or 0 if absent.
// The tensor must be coalesced; At performs a binary search.
func (t *Tensor) At(coords ...int64) float64 {
	o := len(t.dims)
	if len(coords) != o {
		panic("tensor: At arity mismatch")
	}
	n := len(t.val)
	p := sort.Search(n, func(p int) bool {
		a := t.idx[p*o : (p+1)*o]
		for m := 0; m < o; m++ {
			if a[m] != coords[m] {
				return a[m] >= coords[m]
			}
		}
		return true
	})
	if p < n {
		a := t.idx[p*o : (p+1)*o]
		match := true
		for m := 0; m < o; m++ {
			if a[m] != coords[m] {
				match = false
				break
			}
		}
		if match {
			return t.val[p]
		}
	}
	return 0
}

// Norm returns the Frobenius norm ‖𝒳‖_F. The tensor should be coalesced
// if duplicate coordinates may be present.
func (t *Tensor) Norm() float64 {
	var ss float64
	for _, v := range t.val {
		ss += v * v
	}
	return math.Sqrt(ss)
}

// Equal reports whether a and b have the same shape and the same entries
// within tolerance tol. Both tensors are coalesced as a side effect.
func Equal(a, b *Tensor, tol float64) bool {
	if !sameDims(a.dims, b.dims) {
		return false
	}
	a.Coalesce()
	b.Coalesce()
	o := len(a.dims)
	i, j := 0, 0
	for i < len(a.val) || j < len(b.val) {
		switch {
		case i >= len(a.val):
			if math.Abs(b.val[j]) > tol {
				return false
			}
			j++
		case j >= len(b.val):
			if math.Abs(a.val[i]) > tol {
				return false
			}
			i++
		default:
			cmp := compareIdx(a.idx[i*o:(i+1)*o], b.idx[j*o:(j+1)*o])
			switch {
			case cmp < 0:
				if math.Abs(a.val[i]) > tol {
					return false
				}
				i++
			case cmp > 0:
				if math.Abs(b.val[j]) > tol {
					return false
				}
				j++
			default:
				if math.Abs(a.val[i]-b.val[j]) > tol {
					return false
				}
				i++
				j++
			}
		}
	}
	return true
}

// String summarizes the tensor shape and occupancy.
func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor%v nnz=%d", t.dims, t.NNZ())
}

func sameDims(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func compareIdx(a, b []int64) int {
	for m := range a {
		if a[m] != b[m] {
			if a[m] < b[m] {
				return -1
			}
			return 1
		}
	}
	return 0
}

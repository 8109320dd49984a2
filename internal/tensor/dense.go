package tensor

import (
	"fmt"
	"math"
)

// Dense is a small dense N-way tensor, used for Tucker core tensors
// (at most 80×80×80 in the paper's evaluation) and for exhaustive
// reference checks in tests. Entries are stored in a flat slice with
// mode-0 varying slowest (row-major generalization).
type Dense struct {
	dims []int64
	Data []float64
}

// MaxDense is the largest number of entries a dense tensor may hold.
const MaxDense = 1 << 27

// NewDense returns a zero dense tensor with the given mode sizes.
// It panics if the total size is unreasonably large (> MaxDense
// entries), which would indicate a misuse for data that should stay
// sparse.
func NewDense(dims ...int64) *Dense {
	if len(dims) == 0 {
		panic("tensor: NewDense requires at least one mode")
	}
	total := int64(1)
	for i, d := range dims {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: dense mode %d has nonpositive size %d", i, d))
		}
		total *= d
		if total > MaxDense {
			panic(fmt.Sprintf("tensor: NewDense%v too large to materialize", dims))
		}
	}
	ds := make([]int64, len(dims))
	copy(ds, dims)
	return &Dense{dims: ds, Data: make([]float64, total)}
}

// Order returns the number of modes.
func (d *Dense) Order() int { return len(d.dims) }

// Dims returns a copy of the mode sizes.
func (d *Dense) Dims() []int64 {
	out := make([]int64, len(d.dims))
	copy(out, d.dims)
	return out
}

// Dim returns the size of mode n.
func (d *Dense) Dim(n int) int64 { return d.dims[n] }

func (d *Dense) offset(coords []int64) int64 {
	if len(coords) != len(d.dims) {
		panic("tensor: dense coordinate arity mismatch")
	}
	var off int64
	for m, c := range coords {
		if c < 0 || c >= d.dims[m] {
			panic(fmt.Sprintf("tensor: dense coordinate %d out of range [0,%d) on mode %d", c, d.dims[m], m))
		}
		off = off*d.dims[m] + c
	}
	return off
}

// At returns the entry at the given coordinates.
func (d *Dense) At(coords ...int64) float64 { return d.Data[d.offset(coords)] }

// Set assigns the entry at the given coordinates.
func (d *Dense) Set(v float64, coords ...int64) { d.Data[d.offset(coords)] = v }

// Add accumulates v into the entry at the given coordinates.
func (d *Dense) Add(v float64, coords ...int64) { d.Data[d.offset(coords)] += v }

// Norm returns the Frobenius norm.
func (d *Dense) Norm() float64 {
	var ss float64
	for _, v := range d.Data {
		ss += v * v
	}
	return math.Sqrt(ss)
}

// ToSparse converts d to a coalesced sparse tensor, dropping zeros.
func (d *Dense) ToSparse() *Tensor {
	t := New(d.dims...)
	coords := make([]int64, len(d.dims))
	for i, v := range d.Data {
		if v == 0 {
			continue
		}
		lin := int64(i)
		for m := len(d.dims) - 1; m >= 0; m-- {
			coords[m] = lin % d.dims[m]
			lin /= d.dims[m]
		}
		t.Append(v, coords...)
	}
	t.Coalesce()
	return t
}

// FromSparse materializes a sparse tensor densely. Duplicate coordinates
// are summed. It panics for shapes too large to hold (see NewDense).
func FromSparse(t *Tensor) *Dense {
	d := NewDense(t.dims...)
	o := t.Order()
	for p, v := range t.val {
		d.Data[d.offset(t.idx[p*o:(p+1)*o])] += v
	}
	return d
}

// String summarizes the dense tensor.
func (d *Dense) String() string {
	return fmt.Sprintf("Dense%v", d.dims)
}

package core

import (
	"fmt"
	"math/rand"
	"slices"

	"github.com/haten2/haten2/internal/matrix"
	"github.com/haten2/haten2/internal/mr"
	"github.com/haten2/haten2/internal/tensor"
)

// This file implements the extensions the paper names as future work
// (§VI): nonnegative tensor decomposition and decomposition with missing
// values. Both are PARAFAC-ALS with one piece of the rule replaced,
// demonstrating the framework-extension point §III-B4 advertises.

// NonnegativeParafac runs a rank-R nonnegative PARAFAC decomposition
// using Lee–Seung style multiplicative updates:
//
//	A ← A ∗ (𝒳₍ₙ₎(C⊙B)) ⊘ (A·(CᵀC ∗ BᵀB))
//
// The numerator is the same bottleneck contraction as PARAFAC-ALS and is
// computed on the cluster with the selected variant; the denominator is
// a local I×R product. Factors stay elementwise nonnegative, making the
// components interpretable as soft cluster memberships. The tensor is
// coalesced first, so duplicates are judged by their sum; a negative sum
// is *ErrNegativeInput and runs nothing.
func NonnegativeParafac(c *mr.Cluster, x *tensor.Tensor, rank int, opt Options) (*ParafacResult, error) {
	x.Coalesce()
	for p := 0; p < x.NNZ(); p++ {
		if x.Value(p) < 0 {
			return nil, &ErrNegativeInput{Index: slices.Clone(x.Index(p)), Value: x.Value(p)}
		}
	}
	r := parafacRule("nnparafac", x.Order(), rank)
	r.initFactor = func(rows, cols int, rng *rand.Rand) *matrix.Matrix {
		f := matrix.Random(rows, cols, rng)
		for i := range f.Data {
			f.Data[i] += 0.1 // bound away from zero: multiplicative updates cannot leave 0
		}
		return f
	}
	r.update = func(st *alsState, n int, others []*matrix.Matrix, ys []YEntry, _ *rand.Rand) {
		const eps = 1e-12
		f := st.factors[n]
		num := kruskalProduct(ys, f.Rows, rank)
		den := matrix.Mul(f, gramProduct(others))
		for i := range f.Data {
			f.Data[i] *= num.Data[i] / (den.Data[i] + eps)
		}
	}
	// The loop's factors are unnormalized; the model is their λ +
	// unit-column form.
	r.model = func(st *alsState) *tensor.Kruskal {
		k := &tensor.Kruskal{Lambda: make([]float64, rank)}
		for i := range k.Lambda {
			k.Lambda[i] = 1
		}
		for _, f := range st.factors {
			cp := f.Clone()
			for i, n := range cp.NormalizeColumns() {
				k.Lambda[i] *= n
			}
			k.Factors = append(k.Factors, cp)
		}
		return k
	}
	return r.parafac(c, x, rank, opt)
}

// ErrNegativeInput is the error NonnegativeParafac returns for a tensor
// with a negative value once duplicates are summed: Index and Value are
// the first such entry's, in coordinate order.
type ErrNegativeInput struct {
	Index []int64
	Value float64
}

func (e *ErrNegativeInput) Error() string {
	return fmt.Sprintf("core: NonnegativeParafac requires a nonnegative tensor; entry %v is %g", e.Index, e.Value)
}

// ErrMaskedInput reports a MaskedParafacALS input rejected before
// anything is staged: a tensor that is not 3-way (Pos is -1), or the
// missing coordinate at index Pos lying outside Dims.
type ErrMaskedInput struct {
	Dims  []int64
	Pos   int
	Coord [3]int64
}

func (e *ErrMaskedInput) Error() string {
	if e.Pos < 0 {
		return fmt.Sprintf("core: masked PARAFAC takes a 3-way tensor, got dims %v", e.Dims)
	}
	return fmt.Sprintf("core: missing coordinate %d %v is outside the tensor's dims %v", e.Pos, e.Coord, e.Dims)
}

// MaskedParafacALS decomposes a 3-way tensor whose values at the given
// coordinates are unknown (held out or genuinely missing), using
// EM-style imputation: each outer iteration fills the missing cells with
// the current model's predictions, then runs one distributed ALS sweep
// over the completed tensor. The missing set must be sparse (it is
// materialized); this matches the common use cases of cross-validation
// holdouts and known-corrupt measurements.
//
// The returned model's Fits (when tracked) are computed against the
// observed entries only.
func MaskedParafacALS(c *mr.Cluster, x *tensor.Tensor, missing [][3]int64, rank int, opt Options) (*ParafacResult, error) {
	dims := x.Dims()
	if len(dims) != 3 {
		return nil, &ErrMaskedInput{Dims: dims, Pos: -1}
	}
	// Strip any observed values at missing coordinates.
	missSet := make(map[[3]int64]struct{}, len(missing))
	for pos, idx := range missing {
		for m, i := range idx {
			if i < 0 || i >= dims[m] {
				return nil, &ErrMaskedInput{Dims: dims, Pos: pos, Coord: idx}
			}
		}
		missSet[idx] = struct{}{}
	}
	observed := tensor.New(dims...)
	for p := 0; p < x.NNZ(); p++ {
		idx := x.Index(p)
		if _, gone := missSet[[3]int64(idx)]; !gone {
			observed.Append(x.Value(p), idx...)
		}
	}
	observed.Coalesce()

	// Factors persist across EM iterations; only the tensor's imputed
	// entries change.
	r := parafacRule("maskedparafac", 3, rank)
	r.warmStart = true
	// E step: complete the tensor with the model's predictions at the
	// missing coordinates (the first iteration runs on the observed
	// entries alone); the sweep over it is the M step.
	r.restage = func(st *alsState) *tensor.Tensor {
		model := r.model(st)
		work := observed.Clone()
		for idx := range missSet {
			if v := model.At(idx[:]...); v != 0 {
				work.Append(v, idx[:]...)
			}
		}
		work.Coalesce()
		return work
	}
	return r.parafac(c, observed, rank, opt)
}

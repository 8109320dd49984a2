package tensor

import (
	"fmt"
	"math"

	"github.com/haten2/haten2/internal/matrix"
)

// Kruskal is a rank-R PARAFAC (CP) model: 𝒳 ≈ Σ_r λ_r a_r⁽¹⁾∘…∘a_r⁽ᴺ⁾.
// Factors[m] has shape I_m×R with unit-norm columns; Lambda carries the
// component weights extracted by column normalization (Algorithm 1).
type Kruskal struct {
	Lambda  []float64
	Factors []*matrix.Matrix
}

// Rank returns the number of components R.
func (k *Kruskal) Rank() int { return len(k.Lambda) }

// At evaluates the model at the given coordinates.
func (k *Kruskal) At(coords ...int64) float64 {
	if len(coords) != len(k.Factors) {
		panic("tensor: Kruskal.At arity mismatch")
	}
	var s float64
	for r, lam := range k.Lambda {
		p := lam
		for m, f := range k.Factors {
			p *= f.At(int(coords[m]), r)
		}
		s += p
	}
	return s
}

// NormSquared returns ‖𝒳̂‖²_F using the Gram identity
// ‖[λ; A⁽¹⁾…A⁽ᴺ⁾]‖² = λᵀ (∗_m A⁽ᵐ⁾ᵀA⁽ᵐ⁾) λ,
// which avoids materializing the full tensor.
func (k *Kruskal) NormSquared() float64 {
	r := k.Rank()
	if r == 0 {
		return 0
	}
	g := matrix.New(r, r)
	for i := 0; i < r; i++ {
		for j := 0; j < r; j++ {
			g.Set(i, j, 1)
		}
	}
	for _, f := range k.Factors {
		g = matrix.Hadamard(g, matrix.Gram(f))
	}
	var s float64
	for i := 0; i < r; i++ {
		for j := 0; j < r; j++ {
			s += k.Lambda[i] * g.At(i, j) * k.Lambda[j]
		}
	}
	return s
}

// InnerWith returns ⟨𝒳, 𝒳̂⟩ evaluated only at the nonzeros of 𝒳.
func (k *Kruskal) InnerWith(x *Tensor) float64 {
	o := x.Order()
	if len(k.Factors) != o {
		panic("tensor: Kruskal.InnerWith order mismatch")
	}
	var s float64
	prod := make([]float64, k.Rank())
	for p := 0; p < x.NNZ(); p++ {
		idx := x.Index(p)
		copy(prod, k.Lambda)
		for m, f := range k.Factors {
			row := f.Row(int(idx[m]))
			for r := range prod {
				prod[r] *= row[r]
			}
		}
		var v float64
		for _, pv := range prod {
			v += pv
		}
		s += x.Value(p) * v
	}
	return s
}

// Fit returns the model fit 1 − ‖𝒳−𝒳̂‖_F/‖𝒳‖_F, computed without
// materializing 𝒳̂ via ‖𝒳−𝒳̂‖² = ‖𝒳‖² − 2⟨𝒳,𝒳̂⟩ + ‖𝒳̂‖².
//
// That sum cancels three terms of size ‖𝒳‖², so its rounding error is
// a few ε·‖𝒳‖² and the fit it yields is good to a few √ε in absolute
// terms, about 10⁻⁷: near 1, fits closer than that are not resolved.
// An exact model reads 1 − O(√ε), not 1 − O(ε).
func (k *Kruskal) Fit(x *Tensor) float64 {
	xn := x.Norm()
	if xn == 0 {
		return 0
	}
	res := xn*xn - 2*k.InnerWith(x) + k.NormSquared()
	if res < 0 {
		res = 0 // numerical round-off
	}
	return 1 - math.Sqrt(res)/xn
}

// Full materializes the model as a dense tensor (small shapes only).
func (k *Kruskal) Full(dims ...int64) *Dense {
	if len(dims) != len(k.Factors) {
		panic("tensor: Kruskal.Full arity mismatch")
	}
	d := NewDense(dims...)
	coords := make([]int64, len(dims))
	var fill func(m int)
	fill = func(m int) {
		if m == len(dims) {
			d.Set(k.At(coords...), coords...)
			return
		}
		for c := int64(0); c < dims[m]; c++ {
			coords[m] = c
			fill(m + 1)
		}
	}
	fill(0)
	return d
}

// TuckerModel is a Tucker decomposition 𝒳 ≈ 𝒢 ×₁A⁽¹⁾ ×₂A⁽²⁾ … ×_N A⁽ᴺ⁾
// with a dense core 𝒢 and column-orthonormal factor matrices.
type TuckerModel struct {
	Core    *Dense
	Factors []*matrix.Matrix
}

// At evaluates the model at the given coordinates:
// Σ_{p…} 𝒢(p…)·Π_m A⁽ᵐ⁾(i_m, p_m).
func (t *TuckerModel) At(coords ...int64) float64 {
	o := len(t.Factors)
	if len(coords) != o {
		panic("tensor: TuckerModel.At arity mismatch")
	}
	cd := t.Core.Dims()
	core := make([]int64, o)
	var rec func(m int, w float64) float64
	rec = func(m int, w float64) float64 {
		if m == o {
			return w * t.Core.At(core...)
		}
		var s float64
		for p := int64(0); p < cd[m]; p++ {
			f := t.Factors[m].At(int(coords[m]), int(p))
			if f == 0 {
				continue
			}
			core[m] = p
			s += rec(m+1, w*f)
		}
		return s
	}
	return rec(0, 1)
}

// InnerWith returns ⟨𝒳, 𝒳̂⟩ evaluated at the nonzeros of 𝒳.
func (t *TuckerModel) InnerWith(x *Tensor) float64 {
	var s float64
	for p := 0; p < x.NNZ(); p++ {
		s += x.Value(p) * t.At(x.Index(p)...)
	}
	return s
}

// Fit returns 1 − ‖𝒳−𝒳̂‖_F/‖𝒳‖_F. For orthonormal factors
// ‖𝒳̂‖_F = ‖𝒢‖_F, which this uses. Like Kruskal.Fit it expands the
// residual as ‖𝒳‖² − 2⟨𝒳,𝒳̂⟩ + ‖𝒢‖², so it resolves the fit only to a
// few √ε, about 10⁻⁷, near 1.
func (t *TuckerModel) Fit(x *Tensor) float64 {
	xn := x.Norm()
	if xn == 0 {
		return 0
	}
	gn := t.Core.Norm()
	res := xn*xn - 2*t.InnerWith(x) + gn*gn
	if res < 0 {
		res = 0
	}
	return 1 - math.Sqrt(res)/xn
}

// String summarizes the model shapes.
func (t *TuckerModel) String() string {
	return fmt.Sprintf("Tucker core=%v factors=%d", t.Core.Dims(), len(t.Factors))
}

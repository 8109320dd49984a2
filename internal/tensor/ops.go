package tensor

import (
	"fmt"

	"github.com/haten2/haten2/internal/matrix"
)

// ModeMatrixProduct returns 𝒴 = 𝒳 ×ₙ U where U is Q×Iₙ: mode n of size Iₙ
// is replaced by a mode of size Q with
// 𝒴(i₁…q…i_N) = Σ_{iₙ} 𝒳(i₁…iₙ…i_N)·U(q, iₙ).
// This is the in-memory reference for the distributed plans; it
// materializes at most nnz(𝒳)·Q intermediate entries (Lemma 3).
func ModeMatrixProduct(t *Tensor, n int, u *matrix.Matrix) *Tensor {
	if int64(u.Cols) != t.dims[n] {
		panic(fmt.Sprintf("tensor: ModeMatrixProduct matrix cols %d != dim %d of mode %d", u.Cols, t.dims[n], n))
	}
	o := t.Order()
	dims := t.Dims()
	dims[n] = int64(u.Rows)
	out := New(dims...)
	q := u.Rows
	out.idx = make([]int64, 0, len(t.val)*q)
	out.val = make([]float64, 0, len(t.val)*q)
	coords := make([]int64, o)
	for p, x := range t.val {
		src := t.idx[p*o : (p+1)*o]
		copy(coords, src)
		in := src[n]
		for r := 0; r < q; r++ {
			uv := u.At(r, int(in))
			if uv == 0 {
				continue
			}
			coords[n] = int64(r)
			out.idx = append(out.idx, coords...)
			out.val = append(out.val, x*uv)
		}
	}
	out.Coalesce()
	return out
}

// Matricize returns the mode-n matricization 𝒳₍ₙ₎ as a dense matrix of
// shape Iₙ × Π_{m≠n} I_m, using the standard (Kolda) column ordering:
// column index j = Σ_{m≠n} i_m · Π_{k<m, k≠n} I_k.
// Intended for tensors whose matricized shape is small enough to hold
// densely (e.g. the Tucker intermediate 𝒴 of shape I×Q×R).
func Matricize(t *Tensor, n int) *matrix.Matrix {
	o := t.Order()
	rows := t.dims[n]
	cols := int64(1)
	strides := make([]int64, o)
	for m := 0; m < o; m++ {
		if m == n {
			continue
		}
		strides[m] = cols
		cols *= t.dims[m]
	}
	if rows*cols > 1<<28 {
		panic(fmt.Sprintf("tensor: Matricize would materialize %d×%d dense entries", rows, cols))
	}
	out := matrix.New(int(rows), int(cols))
	for p, x := range t.val {
		src := t.idx[p*o : (p+1)*o]
		var col int64
		for m, c := range src {
			if m != n {
				col += c * strides[m]
			}
		}
		out.Data[src[n]*cols+col] += x
	}
	return out
}

// MTTKRP computes the matricized-tensor-times-Khatri-Rao-product
// M = 𝒳₍ₙ₎ (⊙_{m≠n, reverse order} A⁽ᵐ⁾), the kernel of PARAFAC-ALS:
// M(iₙ, r) = Σ_{entries} x · Π_{m≠n} A⁽ᵐ⁾(i_m, r).
// factors must hold one I_m×R matrix per mode; factors[n] is ignored.
// The result has shape Iₙ×R.
func MTTKRP(t *Tensor, factors []*matrix.Matrix, n int) *matrix.Matrix {
	o := t.Order()
	if len(factors) != o {
		panic(fmt.Sprintf("tensor: MTTKRP got %d factors for order-%d tensor", len(factors), o))
	}
	r := factors[(n+1)%o].Cols
	for m, f := range factors {
		if m == n {
			continue
		}
		if f.Cols != r || int64(f.Rows) != t.dims[m] {
			panic(fmt.Sprintf("tensor: MTTKRP factor %d has shape %dx%d, want %dx%d", m, f.Rows, f.Cols, t.dims[m], r))
		}
	}
	out := matrix.New(int(t.dims[n]), r)
	prod := make([]float64, r)
	for p, x := range t.val {
		src := t.idx[p*o : (p+1)*o]
		for c := range prod {
			prod[c] = x
		}
		for m := 0; m < o; m++ {
			if m == n {
				continue
			}
			row := factors[m].Row(int(src[m]))
			for c := range prod {
				prod[c] *= row[c]
			}
		}
		dst := out.Row(int(src[n]))
		for c, v := range prod {
			dst[c] += v
		}
	}
	return out
}

package tensor

// The in-memory statements of the paper's Definitions 1, 2 and 5. The
// decompositions never build these tensors: internal/core runs the
// operators as MapReduce jobs. Here they let the property tests check
// the identities those jobs rest on, such as HaTen2-DNN's decoupling
// 𝒳 ×̄ₙ v = Collapse(𝒳 ∗̄ₙ v)ₙ.

import (
	"fmt"

	"github.com/haten2/haten2/internal/matrix"
)

// modeVectorHadamard returns 𝒳 ∗̄ₙ v (Definition 1): a tensor of the same
// shape whose entry at (i₁…iₙ…i_N) is x·v[iₙ]. It panics if len(v) does
// not match mode n.
func modeVectorHadamard(t *Tensor, n int, v []float64) *Tensor {
	if int64(len(v)) != t.dims[n] {
		panic(fmt.Sprintf("tensor: modeVectorHadamard vector length %d != dim %d of mode %d", len(v), t.dims[n], n))
	}
	out := New(t.dims...)
	o := t.Order()
	out.idx = append([]int64(nil), t.idx...)
	out.val = make([]float64, len(t.val))
	for p, x := range t.val {
		out.val[p] = x * v[t.idx[p*o+n]]
	}
	return out
}

// collapse returns Collapse(𝒳)ₙ (Definition 2): the order-(N−1) tensor
// obtained by summing all entries across mode n. It panics for order-1
// tensors, whose result would be a scalar.
func collapse(t *Tensor, n int) *Tensor {
	o := t.Order()
	if o < 2 {
		panic("tensor: collapse requires order >= 2")
	}
	dims := make([]int64, 0, o-1)
	for m, d := range t.dims {
		if m != n {
			dims = append(dims, d)
		}
	}
	out := New(dims...)
	out.idx = make([]int64, 0, len(t.val)*(o-1))
	out.val = make([]float64, 0, len(t.val))
	coords := make([]int64, o-1)
	for p, x := range t.val {
		src := t.idx[p*o : (p+1)*o]
		w := 0
		for m, c := range src {
			if m != n {
				coords[w] = c
				w++
			}
		}
		out.idx = append(out.idx, coords...)
		out.val = append(out.val, x)
	}
	out.Coalesce()
	return out
}

// modeMatrixHadamard returns 𝒳 ∗ₙ U (Definition 5) where U is Q×Iₙ: an
// order-(N+1) tensor whose (i₁…i_N, q) entry is x·U(q, iₙ). The new mode
// of size Q is appended last, matching the paper's definition.
func modeMatrixHadamard(t *Tensor, n int, u *matrix.Matrix) *Tensor {
	if int64(u.Cols) != t.dims[n] {
		panic(fmt.Sprintf("tensor: modeMatrixHadamard matrix cols %d != dim %d of mode %d", u.Cols, t.dims[n], n))
	}
	o := t.Order()
	dims := append(t.Dims(), int64(u.Rows))
	out := New(dims...)
	q := u.Rows
	out.idx = make([]int64, 0, len(t.val)*q*(o+1))
	out.val = make([]float64, 0, len(t.val)*q)
	for p, x := range t.val {
		src := t.idx[p*o : (p+1)*o]
		in := src[n]
		for r := 0; r < q; r++ {
			uv := u.At(r, int(in))
			if uv == 0 {
				continue
			}
			out.idx = append(out.idx, src...)
			out.idx = append(out.idx, int64(r))
			out.val = append(out.val, x*uv)
		}
	}
	return out
}

// modeVectorProduct returns 𝒳 ×̄ₙ v, the n-mode vector product, as the
// n-mode matrix product with the 1×Iₙ matrix vᵀ, its singleton mode n
// dropped. It shares no code with collapse or modeVectorHadamard, so
// the decoupling property compares two independent routes.
func modeVectorProduct(t *Tensor, n int, v []float64) *Tensor {
	y := ModeMatrixProduct(t, n, &matrix.Matrix{Rows: 1, Cols: len(v), Data: v})
	dims := t.Dims()
	out := New(append(dims[:n:n], dims[n+1:]...)...)
	for p := 0; p < y.NNZ(); p++ {
		idx := y.Index(p)
		out.Append(y.Value(p), append(idx[:n:n], idx[n+1:]...)...)
	}
	return out
}

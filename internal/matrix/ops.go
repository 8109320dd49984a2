package matrix

import "fmt"

// Mul returns the standard matrix product a·b.
// It panics if a.Cols != b.Rows.
func Mul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("matrix: Mul shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// Gram returns AᵀA, the Gram matrix of a's columns. For an I×R input the
// result is R×R; this is the small matrix PARAFAC-ALS inverts each sweep.
func Gram(a *Matrix) *Matrix {
	out := New(a.Cols, a.Cols)
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		for p, vp := range row {
			if vp == 0 {
				continue
			}
			orow := out.Row(p)
			for q, vq := range row {
				orow[q] += vp * vq
			}
		}
	}
	return out
}

// Hadamard returns the element-wise product a∗b. It panics on shape
// mismatch.
func Hadamard(a, b *Matrix) *Matrix {
	a.mustSameShape(b, "Hadamard")
	out := New(a.Rows, a.Cols)
	for i := range a.Data {
		out.Data[i] = a.Data[i] * b.Data[i]
	}
	return out
}

// KhatriRao returns the column-wise Kronecker (Khatri-Rao) product a⊙b.
// Inputs must have the same number of columns R; the result is
// (a.Rows·b.Rows)×R with column r equal to a_r ⊗ b_r.
func KhatriRao(a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("matrix: KhatriRao column mismatch %d vs %d", a.Cols, b.Cols))
	}
	out := New(a.Rows*b.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		for j := 0; j < b.Rows; j++ {
			brow := b.Row(j)
			orow := out.Row(i*b.Rows + j)
			for r := range orow {
				orow[r] = arow[r] * brow[r]
			}
		}
	}
	return out
}

// Kronecker returns the Kronecker product a⊗b of size
// (a.Rows·b.Rows)×(a.Cols·b.Cols).
func Kronecker(a, b *Matrix) *Matrix {
	out := New(a.Rows*b.Rows, a.Cols*b.Cols)
	for ia := 0; ia < a.Rows; ia++ {
		for ja := 0; ja < a.Cols; ja++ {
			av := a.At(ia, ja)
			if av == 0 {
				continue
			}
			for ib := 0; ib < b.Rows; ib++ {
				dst := out.Row(ia*b.Rows + ib)
				src := b.Row(ib)
				off := ja * b.Cols
				for jb, bv := range src {
					dst[off+jb] += av * bv
				}
			}
		}
	}
	return out
}

// MulVec returns the matrix-vector product a·x.
// It panics if len(x) != a.Cols.
func MulVec(a *Matrix, x []float64) []float64 {
	if len(x) != a.Cols {
		panic(fmt.Sprintf("matrix: MulVec shape mismatch %dx%d · %d", a.Rows, a.Cols, len(x)))
	}
	out := make([]float64, a.Rows)
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// MulBTInto computes dst = a·bᵀ into a preshaped dst (a is M×R, b is
// N×R, dst must be M×N). It is the serving layer's batched scoring
// kernel: a holds a batch of query vectors, b a shard of the object
// factor, and dst(i,j) is query i's score for object j. The loop steps
// through b four rows at a time, reused across the whole query batch,
// with four independent add chains; tail rows go one at a time. Each
// dst element is still one dot product started at +0 and accumulated
// in ascending r with no fused multiply-add, so blocking changes speed,
// never the floating-point result (DESIGN.md §3h).
func MulBTInto(dst, a, b *Matrix) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("matrix: MulBTInto inner mismatch %dx%d · (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("matrix: MulBTInto dst is %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Rows))
	}
	r := a.Cols
	j := 0
	for ; j+4 <= b.Rows; j += 4 {
		b0, b1, b2, b3 := b.Row(j)[:r], b.Row(j + 1)[:r], b.Row(j + 2)[:r], b.Row(j + 3)[:r]
		for i := 0; i < a.Rows; i++ {
			var s0, s1, s2, s3 float64
			for c, av := range a.Row(i)[:r] {
				s0 += av * b0[c]
				s1 += av * b1[c]
				s2 += av * b2[c]
				s3 += av * b3[c]
			}
			d := dst.Data[i*dst.Cols+j : i*dst.Cols+j+4]
			d[0], d[1], d[2], d[3] = s0, s1, s2, s3
		}
	}
	for ; j < b.Rows; j++ {
		for i := 0; i < a.Rows; i++ {
			dst.Data[i*dst.Cols+j] = Dot(a.Row(i), b.Row(j))
		}
	}
}

// Dot returns the inner product of two equal-length vectors.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("matrix: Dot length mismatch %d vs %d", len(x), len(y)))
	}
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

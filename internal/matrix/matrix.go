// Package matrix provides the dense linear algebra needed by the HaTen2
// tensor decomposition algorithms: row-major matrices with the standard,
// Gram and Hadamard products, Householder QR, symmetric Jacobi
// eigendecomposition, Moore-Penrose pseudo-inverse, and extraction of
// leading left singular vectors. KhatriRao materializes A⊙B for tests
// only; the decompositions never form it (they use the Gram identity
// (A⊙B)ᵀ(A⊙B) = AᵀA ∗ BᵀB).
//
// All matrices are small in HaTen2 (factor matrices are I×R with R ≤ ~100,
// and the matrices that get decomposed are Gram matrices of size at most
// (QR)×(QR)), so the package favours clarity and numerical robustness over
// blocked performance tricks.
package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// Matrix is a dense, row-major matrix of float64 values.
// The zero value is an empty 0×0 matrix ready to use.
type Matrix struct {
	Rows, Cols int
	// Data holds the entries in row-major order: element (i,j) is
	// Data[i*Cols+j]. len(Data) == Rows*Cols.
	Data []float64
}

// New returns a zero-initialized matrix with the given shape.
// It panics if rows or cols is negative.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("matrix: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from a slice of equal-length rows.
// It panics if the rows are ragged.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	cols := len(rows[0])
	m := New(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			panic(fmt.Sprintf("matrix: ragged row %d: got %d values, want %d", i, len(r), cols))
		}
		copy(m.Data[i*cols:(i+1)*cols], r)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// Random returns a rows×cols matrix with entries drawn uniformly from
// [0, 1) using rng. A seeded rng makes factor initialization reproducible.
func Random(rows, cols int, rng *rand.Rand) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.Float64()
	}
	return m
}

// At returns element (i, j). Bounds are checked by the slice access.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
// Mutating the returned slice mutates the matrix.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Col returns a copy of column j.
func (m *Matrix) Col(j int) []float64 {
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = m.Data[i*m.Cols+j]
	}
	return out
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Equal reports whether m and o have the same shape and entries
// within the absolute tolerance tol.
func (m *Matrix) Equal(o *Matrix, tol float64) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		return false
	}
	for i := range m.Data {
		if math.Abs(m.Data[i]-o.Data[i]) > tol {
			return false
		}
	}
	return true
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	t := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.Data[j*t.Cols+i] = v
		}
	}
	return t
}

// Norm returns the Frobenius norm of m.
func (m *Matrix) Norm() float64 {
	var ss float64
	for _, v := range m.Data {
		ss += v * v
	}
	return math.Sqrt(ss)
}

// MaxAbs returns the largest absolute entry of m (0 for an empty matrix).
func (m *Matrix) MaxAbs() float64 {
	var mx float64
	for _, v := range m.Data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// String renders the matrix for debugging; large matrices are elided.
func (m *Matrix) String() string {
	const maxShow = 8
	var b strings.Builder
	fmt.Fprintf(&b, "Matrix(%dx%d)[", m.Rows, m.Cols)
	for i := 0; i < m.Rows && i < maxShow; i++ {
		if i > 0 {
			b.WriteString("; ")
		}
		for j := 0; j < m.Cols && j < maxShow; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%.4g", m.At(i, j))
		}
		if m.Cols > maxShow {
			b.WriteString(" …")
		}
	}
	if m.Rows > maxShow {
		b.WriteString("; …")
	}
	b.WriteByte(']')
	return b.String()
}

func (m *Matrix) mustSameShape(o *Matrix, op string) {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		panic(fmt.Sprintf("matrix: %s shape mismatch %dx%d vs %dx%d", op, m.Rows, m.Cols, o.Rows, o.Cols))
	}
}

// NormalizeColumns scales each column of m to unit Euclidean norm in place
// and returns the original column norms. Zero columns are left untouched
// and report norm 0; callers treat a zero norm as weight 0 for that
// component, matching the λ bookkeeping in PARAFAC-ALS (Algorithm 1).
func (m *Matrix) NormalizeColumns() []float64 {
	norms := make([]float64, m.Cols)
	for j := 0; j < m.Cols; j++ {
		var ss float64
		for i := 0; i < m.Rows; i++ {
			v := m.Data[i*m.Cols+j]
			ss += v * v
		}
		n := math.Sqrt(ss)
		norms[j] = n
		if n == 0 {
			continue
		}
		inv := 1 / n
		for i := 0; i < m.Rows; i++ {
			m.Data[i*m.Cols+j] *= inv
		}
	}
	return norms
}

// ScaleColumns multiplies column j of m by s[j] in place.
// It panics if len(s) != m.Cols.
func (m *Matrix) ScaleColumns(s []float64) {
	if len(s) != m.Cols {
		panic(fmt.Sprintf("matrix: ScaleColumns got %d scales for %d columns", len(s), m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] *= s[j]
		}
	}
}

package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func TestNewShapeAndZero(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("New(3,4) = %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("entry %d not zero: %v", i, v)
		}
	}
}

func TestNewPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative shape")
		}
	}()
	New(-1, 2)
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows != 3 || m.Cols != 2 {
		t.Fatalf("shape %dx%d", m.Rows, m.Cols)
	}
	if m.At(2, 1) != 6 || m.At(0, 0) != 1 {
		t.Fatalf("wrong entries: %v", m.Data)
	}
}

func TestFromRowsEmpty(t *testing.T) {
	m := FromRows(nil)
	if m.Rows != 0 || m.Cols != 0 {
		t.Fatalf("empty FromRows shape %dx%d", m.Rows, m.Cols)
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for ragged rows")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestSetAtRowCol(t *testing.T) {
	m := New(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatal("Set/At mismatch")
	}
	r := m.Row(1)
	r[0] = 5 // Row aliases storage.
	if m.At(1, 0) != 5 {
		t.Fatal("Row does not alias storage")
	}
	c := m.Col(2)
	if c[0] != 0 || c[1] != 7 {
		t.Fatalf("Col(2) = %v", c)
	}
}

func TestTranspose(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.T()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("transpose shape %dx%d", tr.Rows, tr.Cols)
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("transpose mismatch at %d,%d", i, j)
			}
		}
	}
}

func TestCloneDeepCopies(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	c := a.Clone()
	c.Set(1, 0, 6)
	if a.At(1, 0) != 3 {
		t.Fatal("Clone did not deep-copy")
	}
}

func TestMul(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	p := Mul(a, b)
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if !p.Equal(want, 1e-12) {
		t.Fatalf("Mul = %v", p)
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := Random(4, 4, rng)
	if !Mul(a, Identity(4)).Equal(a, 1e-12) {
		t.Fatal("a·I != a")
	}
	if !Mul(Identity(4), a).Equal(a, 1e-12) {
		t.Fatal("I·a != a")
	}
}

func TestGramMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := Random(7, 3, rng)
	if !Gram(a).Equal(Mul(a.T(), a), 1e-10) {
		t.Fatal("Gram(a) != aᵀa")
	}
}

func TestHadamard(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{2, 0}, {1, -1}})
	h := Hadamard(a, b)
	want := FromRows([][]float64{{2, 0}, {3, -4}})
	if !h.Equal(want, 0) {
		t.Fatalf("Hadamard = %v", h)
	}
}

func TestKhatriRao(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}, {9, 10}})
	kr := KhatriRao(a, b)
	if kr.Rows != 6 || kr.Cols != 2 {
		t.Fatalf("shape %dx%d", kr.Rows, kr.Cols)
	}
	// Column r is a_r ⊗ b_r.
	if kr.At(0, 0) != 5 || kr.At(2, 0) != 9 || kr.At(3, 0) != 15 {
		t.Fatalf("KhatriRao values wrong: %v", kr.Data)
	}
	if kr.At(5, 1) != 4*10 {
		t.Fatalf("KhatriRao last entry = %v", kr.At(5, 1))
	}
}

func TestKroneckerAgainstKhatriRao(t *testing.T) {
	// Khatri-Rao column r must equal the Kronecker product a_r ⊗ b_r of
	// the two columns, whose entry i·len(b_r)+j is a_r[i]·b_r[j].
	rng := rand.New(rand.NewSource(3))
	a := Random(3, 2, rng)
	b := Random(4, 2, rng)
	kr := KhatriRao(a, b)
	if kr.Rows != 12 || kr.Cols != 2 {
		t.Fatalf("shape %dx%d", kr.Rows, kr.Cols)
	}
	for r := 0; r < 2; r++ {
		for i := 0; i < 3; i++ {
			for j := 0; j < 4; j++ {
				if kr.At(i*4+j, r) != a.At(i, r)*b.At(j, r) {
					t.Fatalf("column %d row %d = %v, want %v", r, i*4+j, kr.At(i*4+j, r), a.At(i, r)*b.At(j, r))
				}
			}
		}
	}
}

func TestEqualShapeAndTolerance(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := a.Clone()
	b.Set(1, 0, 3+1e-9)
	if !a.Equal(b, 1e-8) {
		t.Fatal("entries within tol reported unequal")
	}
	if a.Equal(b, 1e-10) {
		t.Fatal("entries beyond tol reported equal")
	}
	// Same data, transposed shape: 1×4 and 4×1 are not 2×2.
	for _, o := range []*Matrix{{Rows: 1, Cols: 4, Data: a.Data}, {Rows: 4, Cols: 1, Data: a.Data}} {
		if a.Equal(o, math.Inf(1)) || o.Equal(a, math.Inf(1)) {
			t.Fatalf("%dx%d equal to 2x2", o.Rows, o.Cols)
		}
	}
}

func TestDot(t *testing.T) {
	if Dot([]float64{1, 2}, []float64{3, 4}) != 11 {
		t.Fatal("Dot wrong")
	}
}

func TestNormalizeColumns(t *testing.T) {
	m := FromRows([][]float64{{3, 0}, {4, 0}})
	norms := m.NormalizeColumns()
	if math.Abs(norms[0]-5) > 1e-12 || norms[1] != 0 {
		t.Fatalf("norms = %v", norms)
	}
	if math.Abs(m.At(0, 0)-0.6) > 1e-12 || math.Abs(m.At(1, 0)-0.8) > 1e-12 {
		t.Fatalf("normalized col = %v %v", m.At(0, 0), m.At(1, 0))
	}
}

func TestScaleColumns(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	m.ScaleColumns([]float64{2, 10})
	want := FromRows([][]float64{{2, 20}, {6, 40}})
	if !m.Equal(want, 0) {
		t.Fatalf("ScaleColumns = %v", m)
	}
}

func TestQRReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, shape := range [][2]int{{5, 3}, {3, 3}, {3, 5}, {8, 1}} {
		a := Random(shape[0], shape[1], rng)
		q, r := QR(a)
		if !Mul(q, r).Equal(a, 1e-10) {
			t.Fatalf("QR does not reconstruct for %v", shape)
		}
		// Q has orthonormal columns.
		g := Gram(q)
		if !g.Equal(Identity(g.Rows), 1e-10) {
			t.Fatalf("QᵀQ != I for shape %v: %v", shape, g)
		}
	}
}

func TestJacobiEigenDiagonal(t *testing.T) {
	a := FromRows([][]float64{{2, 0}, {0, 5}})
	vals, vecs := JacobiEigen(a)
	if math.Abs(vals[0]-5) > 1e-12 || math.Abs(vals[1]-2) > 1e-12 {
		t.Fatalf("eigenvalues = %v", vals)
	}
	if math.Abs(math.Abs(vecs.At(1, 0))-1) > 1e-10 {
		t.Fatalf("eigenvector for λ=5 should be e2: %v", vecs)
	}
}

func TestJacobiEigenReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b := Random(6, 6, rng)
	a := Mul(b, b.T()) // symmetric PSD
	vals, vecs := JacobiEigen(a)
	// Reconstruct V Λ Vᵀ.
	lam := New(6, 6)
	for i, v := range vals {
		lam.Set(i, i, v)
	}
	rec := Mul(Mul(vecs, lam), vecs.T())
	if !rec.Equal(a, 1e-8) {
		t.Fatal("VΛVᵀ != A")
	}
	// Eigenvalues sorted descending.
	for i := 1; i < len(vals); i++ {
		if vals[i] > vals[i-1]+1e-12 {
			t.Fatalf("eigenvalues not sorted: %v", vals)
		}
	}
}

func TestPseudoInverseOfInvertible(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	b := Random(4, 4, rng)
	a := Mul(b, b.T())
	for i := 0; i < 4; i++ {
		a.Set(i, i, a.At(i, i)+1) // well conditioned
	}
	pinv := PseudoInverse(a)
	if !Mul(a, pinv).Equal(Identity(4), 1e-8) {
		t.Fatal("a·a⁺ != I for invertible a")
	}
}

func TestPseudoInverseRankDeficient(t *testing.T) {
	// a = vvᵀ has rank 1; the Penrose conditions must still hold.
	v := FromRows([][]float64{{1}, {2}, {3}})
	a := Mul(v, v.T())
	p := PseudoInverse(a)
	// a p a == a
	if !Mul(Mul(a, p), a).Equal(a, 1e-8) {
		t.Fatal("a·a⁺·a != a")
	}
	// p a p == p
	if !Mul(Mul(p, a), p).Equal(p, 1e-8) {
		t.Fatal("a⁺·a·a⁺ != a⁺")
	}
}

func TestSVDThinReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := Random(9, 4, rng)
	u, s, v := SVDThin(a)
	sm := New(4, 4)
	for i, x := range s {
		sm.Set(i, i, x)
	}
	rec := Mul(Mul(u, sm), v.T())
	if !rec.Equal(a, 1e-8) {
		t.Fatal("UΣVᵀ != A")
	}
	// Singular values nonnegative, descending.
	for i := 1; i < len(s); i++ {
		if s[i] > s[i-1]+1e-12 || s[i] < 0 {
			t.Fatalf("bad singular values %v", s)
		}
	}
}

func TestLeadingLeftSingularVectorsOrthonormal(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := Random(10, 6, rng)
	u := LeadingLeftSingularVectors(a, 3)
	if u.Rows != 10 || u.Cols != 3 {
		t.Fatalf("shape %dx%d", u.Rows, u.Cols)
	}
	if !Gram(u).Equal(Identity(3), 1e-9) {
		t.Fatal("UᵀU != I")
	}
}

func TestLeadingLeftSingularVectorsRankDeficient(t *testing.T) {
	// Rank-1 matrix but ask for 3 vectors: completion must keep the frame
	// orthonormal.
	v := FromRows([][]float64{{1}, {1}, {1}, {1}})
	a := Mul(v, FromRows([][]float64{{1, 2, 3}}))
	u := LeadingLeftSingularVectors(a, 3)
	if !Gram(u).Equal(Identity(3), 1e-9) {
		t.Fatal("completed frame not orthonormal")
	}
}

// TestLeadingLeftSingularVectorsLowRankFrames is the Tucker update on a
// matricized intermediate of rank below the core size: a rank-2 12×8
// product asked for 5 vectors. The Gram route resolves singular values
// only down to s₀·√(cols·ε); a rounding-noise value above a tighter
// threshold yields a column that is not orthogonal to the leading ones,
// and the frame is then no frame at all.
func TestLeadingLeftSingularVectorsLowRankFrames(t *testing.T) {
	worst := 0.0
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		u := LeadingLeftSingularVectors(Mul(Random(12, 2, rng), Random(2, 8, rng)), 5)
		g := Gram(u)
		for i := 0; i < 5; i++ {
			g.Set(i, i, g.At(i, i)-1)
		}
		worst = math.Max(worst, g.MaxAbs())
		if worst > 1e-12 {
			t.Fatalf("seed %d: max |UᵀU−I| = %.3g, want an orthonormal frame", seed, worst)
		}
	}
	t.Logf("worst max |UᵀU−I| over 200 seeds: %.3g", worst)
}

func TestNormAndMaxAbs(t *testing.T) {
	m := FromRows([][]float64{{3, -4}})
	if math.Abs(m.Norm()-5) > 1e-12 {
		t.Fatalf("Norm = %v", m.Norm())
	}
	if m.MaxAbs() != 4 {
		t.Fatalf("MaxAbs = %v", m.MaxAbs())
	}
}

func TestStringElides(t *testing.T) {
	m := New(20, 20)
	s := m.String()
	if len(s) == 0 || s[0] != 'M' {
		t.Fatalf("String = %q", s)
	}
}

// TestMulBTIntoMatchesMul pins the kernel bitwise against an
// independent ascending-r dot product (the order internal/baseline
// scores in) and against Mul: b's rows 1–9 cover every remainder of the
// 4-row step, and a's rows 1 and 32 a single query and a full batch.
// Signed entries make the sums cancel, so any reordering would show.
func TestMulBTIntoMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, m := range []int{1, 32} {
		for n := 1; n <= 9; n++ {
			for r := 1; r <= 9; r++ {
				a, b := Random(m, r, rng), Random(n, r, rng)
				for i := range b.Data {
					b.Data[i] -= 0.5
				}
				dst := New(m, n)
				MulBTInto(dst, a, b)
				want := Mul(a, b.T())
				for i := 0; i < m; i++ {
					for j := 0; j < n; j++ {
						var s float64
						for c := 0; c < r; c++ {
							s += a.At(i, c) * b.At(j, c)
						}
						got := dst.At(i, j)
						if math.Float64bits(got) != math.Float64bits(s) || math.Float64bits(got) != math.Float64bits(want.At(i, j)) {
							t.Fatalf("%dx%d·(%dx%d)ᵀ (%d,%d): %v, dot %v, Mul %v", m, r, n, r, i, j, got, s, want.At(i, j))
						}
					}
				}
			}
		}
	}
}

// BenchmarkMulBTInto scores one query and a 32-query batch against a
// 32,768-row rank-8 shard, the serving layer's miss and batched shapes.
func BenchmarkMulBTInto(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	obj := Random(32768, 8, rng)
	for _, m := range []int{1, 32} {
		b.Run(fmt.Sprintf("%dx8", m), func(b *testing.B) {
			q, dst := Random(m, 8, rng), New(m, obj.Rows)
			b.SetBytes(int64(8 * len(obj.Data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MulBTInto(dst, q, obj)
			}
		})
	}
}

func TestMulBTIntoPanicsOnShape(t *testing.T) {
	for _, tc := range []struct {
		name      string
		a, b, dst *Matrix
	}{
		{"inner mismatch", New(2, 3), New(4, 2), New(2, 4)},
		{"dst shape", New(2, 3), New(4, 3), New(2, 3)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			MulBTInto(tc.dst, tc.a, tc.b)
		}()
	}
}

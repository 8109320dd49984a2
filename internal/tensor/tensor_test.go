package tensor

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/haten2/haten2/internal/matrix"
)

// small3 builds the running example tensor used across tests:
// a 2×3×2 tensor with a handful of entries.
func small3() *Tensor {
	t := New(2, 3, 2)
	t.Append(1, 0, 0, 0)
	t.Append(2, 0, 1, 1)
	t.Append(3, 1, 2, 0)
	t.Append(4, 1, 0, 1)
	t.Coalesce()
	return t
}

func TestNewValidation(t *testing.T) {
	for _, dims := range [][]int64{{}, {0}, {2, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("New(%v) did not panic", dims)
				}
			}()
			New(dims...)
		}()
	}
}

func TestAppendAndAccessors(t *testing.T) {
	x := small3()
	if x.Order() != 3 || x.NNZ() != 4 {
		t.Fatalf("order=%d nnz=%d", x.Order(), x.NNZ())
	}
	if x.Dim(1) != 3 {
		t.Fatalf("Dim(1)=%d", x.Dim(1))
	}
	d := x.Dims()
	d[0] = 99 // must be a copy
	if x.Dim(0) != 2 {
		t.Fatal("Dims leaked internal storage")
	}
}

func TestAppendBounds(t *testing.T) {
	x := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Append did not panic")
		}
	}()
	x.Append(1, 2, 0)
}

func TestAppendArity(t *testing.T) {
	x := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-arity Append did not panic")
		}
	}()
	x.Append(1, 0)
}

func TestCoalesceSumsAndDrops(t *testing.T) {
	x := New(2, 2)
	x.Append(1, 0, 0)
	x.Append(2, 0, 0) // duplicate: summed
	x.Append(5, 1, 1)
	x.Append(-5, 1, 1) // cancels: dropped
	x.Append(0, 0, 1)  // explicit zero: dropped
	x.Coalesce()
	if x.NNZ() != 1 {
		t.Fatalf("nnz=%d want 1", x.NNZ())
	}
	if x.At(0, 0) != 3 {
		t.Fatalf("At(0,0)=%v", x.At(0, 0))
	}
	if x.At(1, 1) != 0 || x.At(0, 1) != 0 {
		t.Fatal("dropped entries still visible")
	}
}

func TestAtOnMissing(t *testing.T) {
	x := small3()
	if x.At(1, 1, 1) != 0 {
		t.Fatal("missing coordinate should read 0")
	}
	if x.At(1, 2, 0) != 3 {
		t.Fatalf("At(1,2,0)=%v", x.At(1, 2, 0))
	}
}

func TestNorm(t *testing.T) {
	x := New(10, 10)
	x.Append(3, 0, 0)
	x.Append(4, 9, 9)
	if math.Abs(x.Norm()-5) > 1e-12 {
		t.Fatalf("norm=%v", x.Norm())
	}
}

func TestEqual(t *testing.T) {
	a := small3()
	b := small3()
	if !Equal(a, b, 0) {
		t.Fatal("identical tensors not Equal")
	}
	b.Append(1e-9, 0, 2, 1)
	b.Coalesce()
	if !Equal(a, b, 1e-6) {
		t.Fatal("tolerance not applied to unmatched entry")
	}
	if Equal(a, b, 1e-12) {
		t.Fatal("tensors differ beyond tol but Equal")
	}
}

func TestCollapse(t *testing.T) {
	x := small3()
	c := collapse(x, 1) // sum over mode 1 → shape 2×2
	if c.Order() != 2 || c.Dim(0) != 2 || c.Dim(1) != 2 {
		t.Fatalf("collapse shape %v", c.Dims())
	}
	// (0,·,0): entry value 1; (0,·,1): 2; (1,·,0): 3; (1,·,1): 4.
	want := [][]float64{{1, 2}, {3, 4}}
	for i := int64(0); i < 2; i++ {
		for k := int64(0); k < 2; k++ {
			if c.At(i, k) != want[i][k] {
				t.Fatalf("collapse(%d,%d)=%v want %v", i, k, c.At(i, k), want[i][k])
			}
		}
	}
}

func TestCollapseMerges(t *testing.T) {
	x := New(2, 2, 2)
	x.Append(1, 0, 0, 0)
	x.Append(2, 0, 1, 0) // same (i,k) after collapsing mode 1
	c := collapse(x, 1)
	if c.NNZ() != 1 || c.At(0, 0) != 3 {
		t.Fatalf("collapse merge: nnz=%d val=%v", c.NNZ(), c.At(0, 0))
	}
}

func TestModeVectorHadamard(t *testing.T) {
	x := small3()
	v := []float64{10, 100, 1000}
	h := modeVectorHadamard(x, 1, v)
	if h.At(0, 0, 0) != 10 || h.At(1, 2, 0) != 3000 {
		t.Fatalf("hadamard values wrong: %v %v", h.At(0, 0, 0), h.At(1, 2, 0))
	}
	if h.Order() != 3 {
		t.Fatal("hadamard changed order")
	}
}

func TestModeVectorProductEqualsDecoupled(t *testing.T) {
	// The HaTen2-DNN decoupling: 𝒳 ×̄ₙ v == Collapse(𝒳 ∗̄ₙ v)ₙ, on a
	// worked example in every mode. The direct side is the n-mode matrix
	// product with vᵀ; the decoupled side never calls ModeMatrixProduct.
	x := small3()
	for n, v := range [][]float64{{1, -2}, {1, 2, 3}, {0.5, 4}} {
		direct := modeVectorProduct(x, n, v)
		decoupled := collapse(modeVectorHadamard(x, n, v), n)
		if !Equal(direct, decoupled, 1e-12) {
			t.Fatalf("mode %d: decoupling identity violated", n)
		}
	}
	// Mode 1 by hand: (0,0)=1·1, (0,1)=2·2, (1,0)=3·3, (1,1)=4·1.
	y := modeVectorProduct(x, 1, []float64{1, 2, 3})
	want := [][]float64{{1, 4}, {9, 4}}
	for i := int64(0); i < 2; i++ {
		for k := int64(0); k < 2; k++ {
			if y.At(i, k) != want[i][k] {
				t.Fatalf("(%d,%d) = %v, want %v", i, k, y.At(i, k), want[i][k])
			}
		}
	}
}

func TestModeMatrixHadamardShape(t *testing.T) {
	x := small3()
	u := matrix.FromRows([][]float64{{1, 0, 2}, {0, 1, 0}}) // 2×3 = Q×J
	h := modeMatrixHadamard(x, 1, u)
	if h.Order() != 4 || h.Dim(3) != 2 {
		t.Fatalf("shape %v", h.Dims())
	}
	// Entry (1,2,0) has j=2: q=0 gives 3·2=6, q=1 gives 3·0 (skipped).
	if h.At(1, 2, 0, 0) != 6 {
		t.Fatalf("h(1,2,0,0)=%v", h.At(1, 2, 0, 0))
	}
	if h.At(1, 2, 0, 1) != 0 {
		t.Fatalf("h(1,2,0,1)=%v", h.At(1, 2, 0, 1))
	}
}

func TestModeMatrixProductAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	x := randomTensor(rng, []int64{4, 5, 3}, 10)
	u := matrix.Random(2, 5, rng) // Q×J: contract mode 1
	y := ModeMatrixProduct(x, 1, u)
	if y.Dim(1) != 2 {
		t.Fatalf("result dims %v", y.Dims())
	}
	for i := int64(0); i < 4; i++ {
		for q := int64(0); q < 2; q++ {
			for k := int64(0); k < 3; k++ {
				var want float64
				for j := int64(0); j < 5; j++ {
					want += x.At(i, j, k) * u.At(int(q), int(j))
				}
				if math.Abs(y.At(i, q, k)-want) > 1e-10 {
					t.Fatalf("y(%d,%d,%d)=%v want %v", i, q, k, y.At(i, q, k), want)
				}
			}
		}
	}
}

func TestMatricize(t *testing.T) {
	x := small3()
	m1 := Matricize(x, 0) // 2×6
	if m1.Rows != 2 || m1.Cols != 6 {
		t.Fatalf("matricize shape %dx%d", m1.Rows, m1.Cols)
	}
	// Kolda ordering: col = j + k*J for mode-0 matricization of I×J×K.
	// Entry (1,2,0)=3 → row 1, col 2+0*3=2.
	if m1.At(1, 2) != 3 {
		t.Fatalf("m1(1,2)=%v", m1.At(1, 2))
	}
	// Entry (0,1,1)=2 → row 0, col 1+1*3=4.
	if m1.At(0, 4) != 2 {
		t.Fatalf("m1(0,4)=%v", m1.At(0, 4))
	}
}

func TestMatricizeNormPreserved(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := randomTensor(rng, []int64{5, 4, 3}, 20)
	for n := 0; n < 3; n++ {
		m := Matricize(x, n)
		if math.Abs(m.Norm()-x.Norm()) > 1e-10 {
			t.Fatalf("mode-%d matricization changed the norm", n)
		}
	}
}

func TestMTTKRPAgainstMatricizedKhatriRao(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := randomTensor(rng, []int64{4, 3, 5}, 15)
	a := matrix.Random(4, 2, rng)
	b := matrix.Random(3, 2, rng)
	c := matrix.Random(5, 2, rng)
	factors := []*matrix.Matrix{a, b, c}
	// Reference: X₍₁₎ (C ⊙ B); Kolda column ordering puts the later mode
	// on the left of the Khatri-Rao product.
	ref := matrix.Mul(Matricize(x, 0), matrix.KhatriRao(c, b))
	got := MTTKRP(x, factors, 0)
	if !got.Equal(ref, 1e-10) {
		t.Fatal("MTTKRP != X₍₁₎(C⊙B)")
	}
	// Mode 1: X₍₂₎ (C ⊙ A).
	ref2 := matrix.Mul(Matricize(x, 1), matrix.KhatriRao(c, a))
	if !MTTKRP(x, factors, 1).Equal(ref2, 1e-10) {
		t.Fatal("MTTKRP mode 1 != X₍₂₎(C⊙A)")
	}
}

func TestDenseRoundTrip(t *testing.T) {
	x := small3()
	d := NewDense(x.Dims()...)
	for p := 0; p < x.NNZ(); p++ {
		d.Set(x.Value(p), x.Index(p)...)
	}
	back := d.ToSparse()
	if !Equal(x, back, 0) {
		t.Fatal("dense round trip lost entries")
	}
	if math.Abs(d.Norm()-x.Norm()) > 1e-12 {
		t.Fatal("dense norm differs")
	}
}

func TestDenseAccessors(t *testing.T) {
	d := NewDense(2, 3)
	d.Set(5, 1, 2)
	d.Add(2, 1, 2)
	if d.At(1, 2) != 7 {
		t.Fatalf("dense At=%v", d.At(1, 2))
	}
	if d.Order() != 2 || d.Dims()[1] != 3 {
		t.Fatal("dense shape accessors wrong")
	}
}

func TestIORoundTrip(t *testing.T) {
	x := small3()
	var buf bytes.Buffer
	if err := WriteCOO(&buf, x); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCOO(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(x, back, 0) {
		t.Fatal("COO round trip mismatch")
	}
	if back.Dim(1) != 3 {
		t.Fatalf("shape header lost: %v", back.Dims())
	}
}

func TestReadCOOInfersShape(t *testing.T) {
	in := "0 0 0 1.5\n2 1 3 -2\n"
	x, err := ReadCOO(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{3, 2, 4}
	for m, d := range x.Dims() {
		if d != want[m] {
			t.Fatalf("inferred dims %v", x.Dims())
		}
	}
	if x.At(2, 1, 3) != -2 {
		t.Fatal("values lost")
	}
}

func TestReadCOOErrors(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", "empty input"},
		{"0 a 0 1\n", "line 1: bad index"},
		{"0 0 0 x\n", "line 1: bad value"},
		{"0 0 1\n0 0 0 1\n", "line 2: inconsistent order"},
		{"# tensor 2 2\n5 0 1\n", "exceeds declared dim"},
		{"0 0 0 NaN\n", "line 1: non-finite value"},
		{"0 0 0 1\n0 0 0 +Inf\n", "line 2: non-finite value"},
		{"0 0 0 -Inf\n", "line 1: non-finite value"},
		{"9223372036854775807 0 0 1\n", "line 1: index 9223372036854775807 out of range"},
		{"0 0 0 1e308\n0 0 0 1e308\n", "sum to +Inf"},
	}
	for _, c := range cases {
		_, err := ReadCOO(strings.NewReader(c.in))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("ReadCOO(%q) error = %v, want one containing %q", c.in, err, c.want)
		}
	}
}

// randomTensor draws nnz entries at distinct uniform coordinates.
func randomTensor(rng *rand.Rand, dims []int64, nnz int) *Tensor {
	t := New(dims...)
	seen := map[string]bool{}
	coords := make([]int64, len(dims))
	for len(seen) < nnz {
		key := ""
		for m, d := range dims {
			coords[m] = rng.Int63n(d)
			key += string(rune(coords[m])) + ","
		}
		if seen[key] {
			continue
		}
		seen[key] = true
		t.Append(rng.NormFloat64(), coords...)
	}
	t.Coalesce()
	return t
}

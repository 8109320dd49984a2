package tensor

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/haten2/haten2/internal/matrix"
)

// exactTucker builds a tensor that equals a known Tucker model.
func exactTucker(rng *rand.Rand) (*Tensor, *TuckerModel) {
	g := NewDense(2, 2, 2)
	for i := range g.Data {
		g.Data[i] = rng.NormFloat64()
	}
	var facs []*matrix.Matrix
	for _, d := range []int{5, 4, 3} {
		q, _ := matrix.QR(matrix.Random(d, 2, rng))
		facs = append(facs, q)
	}
	model := &TuckerModel{Core: g, Factors: facs}
	x := New(5, 4, 3)
	for i := int64(0); i < 5; i++ {
		for j := int64(0); j < 4; j++ {
			for k := int64(0); k < 3; k++ {
				if v := model.At(i, j, k); v != 0 {
					x.Append(v, i, j, k)
				}
			}
		}
	}
	x.Coalesce()
	return x, model
}

func TestTuckerModelAtAgainstExpansion(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	_, model := exactTucker(rng)
	// Reference: explicit Σ g(p,q,r)·A(i,p)B(j,q)C(k,r).
	for i := int64(0); i < 5; i++ {
		for j := int64(0); j < 4; j++ {
			for k := int64(0); k < 3; k++ {
				var want float64
				for p := int64(0); p < 2; p++ {
					for q := int64(0); q < 2; q++ {
						for r := int64(0); r < 2; r++ {
							want += model.Core.At(p, q, r) *
								model.Factors[0].At(int(i), int(p)) *
								model.Factors[1].At(int(j), int(q)) *
								model.Factors[2].At(int(k), int(r))
						}
					}
				}
				if got := model.At(i, j, k); math.Abs(got-want) > 1e-12 {
					t.Fatalf("At(%d,%d,%d)=%v want %v", i, j, k, got, want)
				}
			}
		}
	}
}

func TestTuckerModelFitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	x, model := exactTucker(rng)
	if fit := model.Fit(x); fit < 1-1e-6 {
		t.Fatalf("exact model fit %v", fit)
	}
	// InnerWith equals ‖X‖² for an exact model.
	n := x.Norm()
	if iw := model.InnerWith(x); math.Abs(iw-n*n) > 1e-8*math.Max(1, n*n) {
		t.Fatalf("inner %v want %v", iw, n*n)
	}
}

func TestTuckerModelFitZeroTensor(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	_, model := exactTucker(rng)
	empty := New(5, 4, 3)
	if fit := model.Fit(empty); fit != 0 {
		t.Fatalf("fit of empty tensor = %v", fit)
	}
}

func TestModelStrings(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	x, model := exactTucker(rng)
	if s := model.String(); !strings.Contains(s, "Tucker") {
		t.Fatalf("TuckerModel.String = %q", s)
	}
	if s := x.String(); !strings.Contains(s, "nnz=") {
		t.Fatalf("Tensor.String = %q", s)
	}
	d := NewDense(2, 2)
	if s := d.String(); !strings.Contains(s, "Dense") {
		t.Fatalf("Dense.String = %q", s)
	}
}

func TestSetValue(t *testing.T) {
	x := New(2, 2)
	x.Append(1, 0, 0)
	x.SetValue(0, 9)
	if x.Value(0) != 9 {
		t.Fatalf("SetValue: %v", x.Value(0))
	}
}

func TestEqualShapeMismatch(t *testing.T) {
	a := New(2, 2)
	b := New(2, 3)
	if Equal(a, b, 1) {
		t.Fatal("different shapes reported Equal")
	}
	c := New(2, 2, 2)
	if Equal(a, c, 1) {
		t.Fatal("different orders reported Equal")
	}
}

func TestKruskalAtArity(t *testing.T) {
	k := &Kruskal{Lambda: []float64{1}, Factors: []*matrix.Matrix{
		matrix.Identity(2), matrix.Identity(2), matrix.Identity(2),
	}}
	defer func() {
		if recover() == nil {
			t.Fatal("wrong arity accepted")
		}
	}()
	k.At(0, 0)
}

// cellFit is 1 − ‖𝒳−𝒳̂‖/‖𝒳‖ with the residual summed cell by cell over
// the whole (small) shape, where at an exact fit it cancels to ~ε.
func cellFit(x *Tensor, at func(...int64) float64) float64 {
	d := x.Dims()
	var res float64
	for i := int64(0); i < d[0]; i++ {
		for j := int64(0); j < d[1]; j++ {
			for k := int64(0); k < d[2]; k++ {
				r := x.At(i, j, k) - at(i, j, k)
				res += r * r
			}
		}
	}
	return 1 - math.Sqrt(res)/x.Norm()
}

// exactKruskal builds a tensor that equals a rank-3 Kruskal model in
// every cell.
func exactKruskal(rng *rand.Rand) (*Tensor, *Kruskal) {
	dims := []int64{8, 7, 6}
	k := &Kruskal{Lambda: []float64{1 + rng.Float64(), 1 + rng.Float64(), 1 + rng.Float64()}}
	for _, d := range dims {
		f := matrix.Random(int(d), 3, rng)
		f.NormalizeColumns()
		k.Factors = append(k.Factors, f)
	}
	return k.Full(dims...).ToSparse(), k
}

// TestFitResolutionNearOne holds both Fits to the resolution their doc
// comments state. On exact-rank models the cell-by-cell fit is 1 to
// within ε, while Fit, which cancels three terms of size ‖𝒳‖², may read
// anything within 10⁻⁷ of it (a few √ε), and no further.
func TestFitResolutionNearOne(t *testing.T) {
	const resolution = 1e-7
	var worstK, worstT float64
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		x, k := exactKruskal(rng)
		worstK = math.Max(worstK, math.Abs(k.Fit(x)-cellFit(x, k.At)))
		x, tm := exactTucker(rng)
		worstT = math.Max(worstT, math.Abs(tm.Fit(x)-cellFit(x, tm.At)))
	}
	if worstK > resolution || worstT > resolution {
		t.Fatalf("worst |Fit − cell fit|: Kruskal %.3g, Tucker %.3g, want ≤ %g", worstK, worstT, resolution)
	}
	t.Logf("worst |Fit − cell fit|: Kruskal %.3g, Tucker %.3g (√ε = %.3g)", worstK, worstT, math.Sqrt(0x1p-52))
}

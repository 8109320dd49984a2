package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/haten2/haten2/internal/matrix"
)

func qcfg(seed int64) *quick.Config {
	return &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(seed))}
}

// drawTensor builds a random 3-way tensor with small dims for property
// tests; duplicate coordinates are allowed and coalesced.
func drawTensor(rng *rand.Rand) *Tensor {
	dims := []int64{1 + rng.Int63n(5), 1 + rng.Int63n(5), 1 + rng.Int63n(5)}
	t := New(dims...)
	nnz := rng.Intn(20)
	for e := 0; e < nnz; e++ {
		t.Append(rng.NormFloat64(), rng.Int63n(dims[0]), rng.Int63n(dims[1]), rng.Int63n(dims[2]))
	}
	t.Coalesce()
	return t
}

func drawVec(rng *rand.Rand, n int64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func TestQuickDecouplingIdentity(t *testing.T) {
	// Paper §III-B2: 𝒳 ×̄ₙ v == Collapse(𝒳 ∗̄ₙ v)ₙ on every mode.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := drawTensor(rng)
		for n := 0; n < 3; n++ {
			v := drawVec(rng, x.Dim(n))
			direct := modeVectorProduct(x, n, v)
			decoupled := collapse(modeVectorHadamard(x, n, v), n)
			if !Equal(direct, decoupled, 1e-10) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, qcfg(21)); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMatrixHadamardSlicesAreVectorHadamards(t *testing.T) {
	// Definition 5: (𝒳 ∗ₙ U)_{…q} == 𝒳 ∗̄ₙ u_q.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := drawTensor(rng)
		n := rng.Intn(3)
		q := 1 + rng.Intn(3)
		u := matrix.Random(q, int(x.Dim(n)), rng)
		h := modeMatrixHadamard(x, n, u)
		for r := 0; r < q; r++ {
			ref := modeVectorHadamard(x, n, u.Row(r))
			ref.Coalesce()
			for p := 0; p < ref.NNZ(); p++ {
				idx := ref.Index(p)
				coords := append(append([]int64{}, idx...), int64(r))
				hv := h.Clone()
				hv.Coalesce()
				if math.Abs(hv.At(coords...)-ref.Value(p)) > 1e-10 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, qcfg(22)); err != nil {
		t.Fatal(err)
	}
}

func TestQuickModeProductMatchesMatricization(t *testing.T) {
	// 𝒴 = 𝒳 ×ₙ U ⇔ Y₍ₙ₎ = U·X₍ₙ₎.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := drawTensor(rng)
		n := rng.Intn(3)
		q := 1 + rng.Intn(4)
		u := matrix.Random(q, int(x.Dim(n)), rng)
		y := ModeMatrixProduct(x, n, u)
		left := Matricize(y, n)
		right := matrix.Mul(u, Matricize(x, n))
		return left.Equal(right, 1e-9)
	}
	if err := quick.Check(f, qcfg(23)); err != nil {
		t.Fatal(err)
	}
}

func TestQuickModeProductsCommute(t *testing.T) {
	// (𝒳 ×₁U) ×₂V == (𝒳 ×₂V) ×₁U for distinct modes — the property that
	// lets HaTen2-DRN remove the sequential dependency.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := drawTensor(rng)
		u := matrix.Random(1+rng.Intn(3), int(x.Dim(1)), rng)
		v := matrix.Random(1+rng.Intn(3), int(x.Dim(2)), rng)
		a := ModeMatrixProduct(ModeMatrixProduct(x, 1, u), 2, v)
		b := ModeMatrixProduct(ModeMatrixProduct(x, 2, v), 1, u)
		return Equal(a, b, 1e-9)
	}
	if err := quick.Check(f, qcfg(24)); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCoalesceIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := drawTensor(rng)
		before := x.Clone()
		x.Coalesce()
		return Equal(before, x, 0)
	}
	if err := quick.Check(f, qcfg(25)); err != nil {
		t.Fatal(err)
	}
}

func TestQuickKruskalFitPerfectModel(t *testing.T) {
	// A tensor generated exactly from a Kruskal model must have fit ≈ 1.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := []int64{2 + rng.Int63n(3), 2 + rng.Int63n(3), 2 + rng.Int63n(3)}
		r := 1 + rng.Intn(2)
		k := &Kruskal{Lambda: make([]float64, r)}
		for m := 0; m < 3; m++ {
			f := matrix.Random(int(dims[m]), r, rng)
			norms := f.NormalizeColumns()
			_ = norms
			k.Factors = append(k.Factors, f)
		}
		for i := range k.Lambda {
			k.Lambda[i] = 1 + rng.Float64()
		}
		x := k.Full(dims...).ToSparse()
		// The residual is computed by cancellation of O(‖𝒳‖²) terms, so
		// the achievable fit is limited by √ε relative error.
		return k.Fit(x) > 1-1e-5
	}
	if err := quick.Check(f, qcfg(27)); err != nil {
		t.Fatal(err)
	}
}

func TestQuickKruskalNormSquaredMatchesFull(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := []int64{2, 3, 2}
		r := 1 + rng.Intn(3)
		k := &Kruskal{Lambda: make([]float64, r)}
		for m := 0; m < 3; m++ {
			k.Factors = append(k.Factors, matrix.Random(int(dims[m]), r, rng))
		}
		for i := range k.Lambda {
			k.Lambda[i] = rng.NormFloat64()
		}
		full := k.Full(dims...)
		n := full.Norm()
		return math.Abs(k.NormSquared()-n*n) < 1e-8*math.Max(1, n*n)
	}
	if err := quick.Check(f, qcfg(28)); err != nil {
		t.Fatal(err)
	}
}

func TestQuickLemma3NNZEstimate(t *testing.T) {
	// Appendix A: for sparse 𝒳 and dense B, nnz(𝒳 ×₂ B) ≈ nnz(𝒳)·Q, and
	// never exceeds it.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := []int64{6, 6, 6}
		x := New(dims...)
		for e := 0; e < 8; e++ {
			x.Append(1+rng.Float64(), rng.Int63n(6), rng.Int63n(6), rng.Int63n(6))
		}
		x.Coalesce()
		q := 1 + rng.Intn(4)
		b := matrix.New(q, 6)
		for i := range b.Data {
			b.Data[i] = 1 + rng.Float64() // fully dense, positive: no cancellation
		}
		y := ModeMatrixProduct(x, 1, b)
		upper := x.NNZ() * q
		return y.NNZ() <= upper
	}
	if err := quick.Check(f, qcfg(29)); err != nil {
		t.Fatal(err)
	}
}

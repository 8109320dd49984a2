package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/haten2/haten2/internal/matrix"
	"github.com/haten2/haten2/internal/tensor"
)

// plantedKruskal builds a tensor from a known rank-R nonnegative model
// so ALS has an exact solution to find.
func plantedKruskal(rng *rand.Rand, dims [3]int64, rank int) (*tensor.Tensor, *tensor.Kruskal) {
	k := &tensor.Kruskal{Lambda: make([]float64, rank)}
	for m := 0; m < 3; m++ {
		f := matrix.Random(int(dims[m]), rank, rng)
		f.NormalizeColumns()
		k.Factors = append(k.Factors, f)
	}
	for r := range k.Lambda {
		k.Lambda[r] = 2 + rng.Float64()
	}
	return k.Full(dims[0], dims[1], dims[2]).ToSparse(), k
}

func TestParafacALSRecoversPlantedModel(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	x, _ := plantedKruskal(rng, [3]int64{8, 7, 6}, 2)
	c := testCluster()
	res, err := ParafacALS(c, x, 2, Options{Variant: DRI, MaxIters: 400, Seed: 1, TrackFit: true, Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	fit := res.Model.Fit(x)
	if fit < 0.999 {
		t.Fatalf("fit %v after %d iters; fits: %v", fit, res.Iters, res.Fits)
	}
}

func TestParafacALSVariantsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	x, _ := plantedKruskal(rng, [3]int64{6, 5, 4}, 2)
	var models []*tensor.Kruskal
	for _, v := range Variants {
		c := testCluster()
		res, err := ParafacALS(c, x, 2, Options{Variant: v, MaxIters: 5, Seed: 7})
		if err != nil {
			t.Fatalf("variant %v: %v", v, err)
		}
		models = append(models, res.Model)
	}
	// Same seed and iteration count ⇒ all variants walk the same ALS
	// trajectory: λ must agree to round-off.
	for i := 1; i < len(models); i++ {
		for r := range models[0].Lambda {
			a, b := models[0].Lambda[r], models[i].Lambda[r]
			if math.Abs(a-b) > 1e-6*math.Max(1, math.Abs(a)) {
				t.Fatalf("variant %v λ[%d]=%v differs from Naive's %v", Variants[i], r, b, a)
			}
		}
	}
}

func TestParafacALSFitMonotonicallyImproves(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	x, _ := plantedKruskal(rng, [3]int64{7, 7, 7}, 3)
	c := testCluster()
	res, err := ParafacALS(c, x, 3, Options{Variant: DRI, MaxIters: 10, Seed: 3, TrackFit: true, Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Fits); i++ {
		if res.Fits[i] < res.Fits[i-1]-1e-8 {
			t.Fatalf("fit decreased at iter %d: %v", i, res.Fits)
		}
	}
}

func TestParafacALSConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	x, _ := plantedKruskal(rng, [3]int64{6, 6, 6}, 1)
	c := testCluster()
	res, err := ParafacALS(c, x, 1, Options{Variant: DRI, MaxIters: 50, Seed: 5, TrackFit: true, Tol: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("rank-1 exact problem did not converge in %d iters", res.Iters)
	}
	if res.Iters >= 50 {
		t.Fatal("convergence flag set but all iterations used")
	}
}

func TestParafacALSValidation(t *testing.T) {
	c := testCluster()
	x := tensor.New(2, 2, 2)
	x.Append(1, 0, 0, 0)
	if _, err := ParafacALS(c, x, 0, Options{}); err == nil {
		t.Fatal("rank 0 accepted")
	}
}

func TestTuckerALSReconstructsLowRankTensor(t *testing.T) {
	// Build a tensor that is exactly Tucker-[2,2,2] and verify the fit.
	rng := rand.New(rand.NewSource(55))
	g := tensor.NewDense(2, 2, 2)
	for i := range g.Data {
		g.Data[i] = rng.NormFloat64()
	}
	var facs []*matrix.Matrix
	for _, d := range []int{6, 5, 4} {
		q, _ := matrix.QR(matrix.Random(d, 2, rng))
		facs = append(facs, q)
	}
	ref := &tensor.TuckerModel{Core: g, Factors: facs}
	x := tensor.New(6, 5, 4)
	for i := int64(0); i < 6; i++ {
		for j := int64(0); j < 5; j++ {
			for k := int64(0); k < 4; k++ {
				if v := ref.At(i, j, k); v != 0 {
					x.Append(v, i, j, k)
				}
			}
		}
	}
	x.Coalesce()
	c := testCluster()
	res, err := TuckerALS(c, x, []int{2, 2, 2}, Options{Variant: DRI, MaxIters: 30, Seed: 2, Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if fit := res.Model.Fit(x); fit < 0.999 {
		t.Fatalf("fit %v; core norms %v", fit, res.CoreNorms)
	}
	// Factors must be orthonormal frames.
	for m, f := range res.Model.Factors {
		if !matrix.Gram(f).Equal(matrix.Identity(f.Cols), 1e-8) {
			t.Fatalf("factor %d not orthonormal", m)
		}
	}
}

func TestTuckerALSCoreNormNonDecreasing(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	x := randomSparse(rng, [3]int64{8, 8, 8}, 60)
	c := testCluster()
	res, err := TuckerALS(c, x, []int{3, 3, 3}, Options{Variant: DRI, MaxIters: 8, Seed: 4, Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.CoreNorms); i++ {
		if res.CoreNorms[i] < res.CoreNorms[i-1]-1e-8 {
			t.Fatalf("‖G‖ decreased: %v", res.CoreNorms)
		}
	}
	// ‖G‖ can never exceed ‖X‖ (orthonormal projections).
	if last := res.CoreNorms[len(res.CoreNorms)-1]; last > x.Norm()+1e-8 {
		t.Fatalf("‖G‖=%v exceeds ‖X‖=%v", last, x.Norm())
	}
}

func TestTuckerALSVariantsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	x := randomSparse(rng, [3]int64{6, 5, 4}, 30)
	var norms []float64
	for _, v := range Variants {
		c := testCluster()
		res, err := TuckerALS(c, x, []int{2, 2, 2}, Options{Variant: v, MaxIters: 4, Seed: 9, Tol: 1e-12})
		if err != nil {
			t.Fatalf("variant %v: %v", v, err)
		}
		norms = append(norms, res.CoreNorms[len(res.CoreNorms)-1])
	}
	for i := 1; i < len(norms); i++ {
		if math.Abs(norms[i]-norms[0]) > 1e-6*math.Max(1, norms[0]) {
			t.Fatalf("variant %v final ‖G‖=%v differs from Naive's %v", Variants[i], norms[i], norms[0])
		}
	}
}

func TestTuckerALSValidation(t *testing.T) {
	c := testCluster()
	x := tensor.New(3, 3, 3)
	x.Append(1, 0, 0, 0)
	if _, err := TuckerALS(c, x, []int{0, 2, 2}, Options{}); err == nil {
		t.Fatal("zero core dim accepted")
	}
	if _, err := TuckerALS(c, x, []int{2, 2, 5}, Options{}); err == nil {
		t.Fatal("core dim larger than tensor dim accepted")
	}
}

func TestNonnegativeParafacStaysNonnegative(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	x, _ := plantedKruskal(rng, [3]int64{6, 6, 6}, 2)
	c := testCluster()
	res, err := NonnegativeParafac(c, x, 2, Options{Variant: DRI, MaxIters: 15, Seed: 6, TrackFit: true, Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	for m, f := range res.Model.Factors {
		for _, v := range f.Data {
			if v < 0 {
				t.Fatalf("factor %d has negative entry %v", m, v)
			}
		}
	}
	if fit := res.Model.Fit(x); fit < 0.9 {
		t.Fatalf("nonnegative fit %v too low (fits %v)", fit, res.Fits)
	}
}

func TestNonnegativeParafacRejectsNegativeInput(t *testing.T) {
	c := testCluster()
	x := tensor.New(2, 2, 2)
	x.Append(-1, 0, 0, 0)
	if _, err := NonnegativeParafac(c, x, 1, Options{}); err == nil {
		t.Fatal("negative tensor accepted")
	}
}

func TestMaskedParafacRecoversHeldOutEntries(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	x, _ := plantedKruskal(rng, [3]int64{7, 6, 5}, 2)
	// Hold out 10% of the nonzeros.
	var missing [][3]int64
	for p := 0; p < x.NNZ(); p += 10 {
		idx := x.Index(p)
		missing = append(missing, [3]int64{idx[0], idx[1], idx[2]})
	}
	c := testCluster()
	res, err := MaskedParafacALS(c, x, missing, 2, Options{Variant: DRI, MaxIters: 120, Seed: 8, TrackFit: true, Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	// The model must predict the held-out values accurately.
	var se, norm float64
	for _, idx := range missing {
		truth := x.At(idx[0], idx[1], idx[2])
		pred := res.Model.At(idx[0], idx[1], idx[2])
		se += (truth - pred) * (truth - pred)
		norm += truth * truth
	}
	if rel := math.Sqrt(se / norm); rel > 0.05 {
		t.Fatalf("held-out relative error %v (fits %v)", rel, res.Fits)
	}
}

func TestParafacConvergesWithoutFitTracking(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	x, _ := plantedKruskal(rng, [3]int64{6, 6, 6}, 1)
	c := testCluster()
	res, err := ParafacALS(c, x, 1, Options{Variant: DRI, MaxIters: 60, Seed: 5, Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("rank-1 problem did not converge via λ criterion in %d iters", res.Iters)
	}
	if res.Iters >= 60 {
		t.Fatal("flag set but all iterations used")
	}
	if fit := res.Model.Fit(x); fit < 0.99 {
		t.Fatalf("fit %v at λ convergence", fit)
	}
}

func TestParafacWarmStartContinuesImproving(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	x, _ := plantedKruskal(rng, [3]int64{8, 7, 6}, 2)
	c := testCluster()
	first, err := ParafacALS(c, x, 2, Options{Variant: DRI, MaxIters: 5, Seed: 1, TrackFit: true, Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	fitAfter5 := first.Fits[len(first.Fits)-1]
	resumed, err := ParafacALS(c, x, 2, Options{
		Variant: DRI, MaxIters: 5, Seed: 99, TrackFit: true, Tol: 1e-12,
		WarmStart: first.Model,
	})
	if err != nil {
		t.Fatal(err)
	}
	fitAfter10 := resumed.Fits[len(resumed.Fits)-1]
	if fitAfter10 < fitAfter5-1e-9 {
		t.Fatalf("resumed fit %v regressed below %v", fitAfter10, fitAfter5)
	}
	// The resumed run must start near the handed-over fit, not from a
	// random model: its first-iteration fit must beat a cold first
	// iteration.
	cold, err := ParafacALS(c, x, 2, Options{Variant: DRI, MaxIters: 1, Seed: 99, TrackFit: true, Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Fits[0] <= cold.Fits[0] {
		t.Fatalf("warm start (%v) no better than cold start (%v)", resumed.Fits[0], cold.Fits[0])
	}
}

func TestParafacWarmStartValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	x, _ := plantedKruskal(rng, [3]int64{6, 6, 6}, 2)
	c := testCluster()
	first, err := ParafacALS(c, x, 2, Options{Variant: DRI, MaxIters: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Wrong rank.
	if _, err := ParafacALS(c, x, 3, Options{Variant: DRI, MaxIters: 1, WarmStart: first.Model}); err == nil {
		t.Fatal("rank mismatch accepted")
	}
	// Wrong shape.
	y, _ := plantedKruskal(rng, [3]int64{5, 6, 6}, 2)
	if _, err := ParafacALS(c, y, 2, Options{Variant: DRI, MaxIters: 1, WarmStart: first.Model}); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}

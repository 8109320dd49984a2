package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/haten2/haten2/internal/baseline"
	"github.com/haten2/haten2/internal/matrix"
	"github.com/haten2/haten2/internal/mr"
	"github.com/haten2/haten2/internal/tensor"
)

func qcfg(seed int64) *quick.Config {
	return &quick.Config{MaxCount: 12, Rand: rand.New(rand.NewSource(seed))}
}

// TestQuickTuckerPlansMatchReference is the repository's central
// property test: for random sparse tensors, random factor shapes, every
// mode and every variant, the distributed contraction must equal the
// in-memory n-mode product chain.
func TestQuickTuckerPlansMatchReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := [3]int64{2 + rng.Int63n(5), 2 + rng.Int63n(5), 2 + rng.Int63n(5)}
		x := randomSparse(rng, dims, 3+rng.Intn(20))
		if x.NNZ() == 0 {
			return true
		}
		n := rng.Intn(3)
		m1, m2 := otherModes(n)
		u1 := matrix.Random(int(dims[m1]), 1+rng.Intn(3), rng)
		u2 := matrix.Random(int(dims[m2]), 1+rng.Intn(3), rng)
		want := tuckerReference(x, n, u1, u2)
		c := mr.NewCluster(mr.Config{Machines: 1 + rng.Intn(6)})
		s, err := Stage(c, "X", x)
		if err != nil {
			return false
		}
		v := Variants[rng.Intn(len(Variants))]
		ys, err := TuckerContract(s, n, u1, u2, v)
		if err != nil {
			return false
		}
		got := yEntriesToTensor(ys, n, dims[n], u1.Cols, u2.Cols)
		return tensor.Equal(got, want, 1e-9)
	}
	if err := quick.Check(f, qcfg(101)); err != nil {
		t.Fatal(err)
	}
}

// TestQuickParafacPlansMatchMTTKRP is the PARAFAC counterpart (Lemma 2
// across all variants).
func TestQuickParafacPlansMatchMTTKRP(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := [3]int64{2 + rng.Int63n(5), 2 + rng.Int63n(5), 2 + rng.Int63n(5)}
		x := randomSparse(rng, dims, 3+rng.Intn(20))
		if x.NNZ() == 0 {
			return true
		}
		rank := 1 + rng.Intn(3)
		factors := []*matrix.Matrix{
			matrix.Random(int(dims[0]), rank, rng),
			matrix.Random(int(dims[1]), rank, rng),
			matrix.Random(int(dims[2]), rank, rng),
		}
		n := rng.Intn(3)
		m1, m2 := otherModes(n)
		c := mr.NewCluster(mr.Config{Machines: 1 + rng.Intn(6)})
		s, err := Stage(c, "X", x)
		if err != nil {
			return false
		}
		v := Variants[rng.Intn(len(Variants))]
		got, err := ParafacContract(s, n, factors[m1], factors[m2], v)
		if err != nil {
			return false
		}
		want := tensor.MTTKRP(x, factors, n)
		return got.Equal(want, 1e-9)
	}
	if err := quick.Check(f, qcfg(102)); err != nil {
		t.Fatal(err)
	}
}

// TestQuickJobCountFormulas checks Tables III/IV's job-count column on
// random shapes.
func TestQuickJobCountFormulas(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := randomSparse(rng, [3]int64{4, 4, 4}, 8)
		q := 1 + rng.Intn(3)
		r := 1 + rng.Intn(3)
		v := Variants[rng.Intn(len(Variants))]
		c := testCluster()
		s, err := Stage(c, "X", x)
		if err != nil {
			return false
		}
		u1 := matrix.Random(4, q, rng)
		u2 := matrix.Random(4, r, rng)
		if _, err := TuckerContract(s, 0, u1, u2, v); err != nil {
			return false
		}
		if c.Totals().Jobs != v.TuckerJobs(q, r) {
			return false
		}
		// PARAFAC requires equal ranks.
		c2 := testCluster()
		s2, err := Stage(c2, "X", x)
		if err != nil {
			return false
		}
		u2r := matrix.Random(4, q, rng)
		if _, err := ParafacContract(s2, 0, u1, u2r, v); err != nil {
			return false
		}
		return c2.Totals().Jobs == v.ParafacJobs(q)
	}
	if err := quick.Check(f, qcfg(103)); err != nil {
		t.Fatal(err)
	}
}

// TestQuickIntermediateBounds checks that measured per-job shuffle never
// exceeds the analytic intermediate-data bounds (up to the vector/matrix
// side inputs, which the formulas omit).
func TestQuickIntermediateBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := [3]int64{5 + rng.Int63n(5), 5 + rng.Int63n(5), 5 + rng.Int63n(5)}
		x := randomSparse(rng, dims, 10+rng.Intn(20))
		q := 1 + rng.Intn(3)
		r := 1 + rng.Intn(3)
		v := Variants[rng.Intn(len(Variants))]
		c := testCluster()
		s, err := Stage(c, "X", x)
		if err != nil {
			return false
		}
		u1 := matrix.Random(int(dims[1]), q, rng)
		u2 := matrix.Random(int(dims[2]), r, rng)
		if _, err := TuckerContract(s, 0, u1, u2, v); err != nil {
			return false
		}
		bound := v.TuckerIntermediate(int64(x.NNZ()), dims[0], dims[1], dims[2], q, r)
		// Allow the matrix side inputs (≤ (J+K)·max(q,r) cells) on top of
		// the tensor-data bound.
		slack := (dims[1] + dims[2]) * int64(q+r)
		return c.Totals().MaxShuffleRecords <= bound+slack
	}
	if err := quick.Check(f, qcfg(104)); err != nil {
		t.Fatal(err)
	}
}

func TestParafacRankExceedingDims(t *testing.T) {
	// Rank larger than every mode size: pseudo-inverse handles the rank
	// deficiency and the run must not produce NaNs.
	rng := rand.New(rand.NewSource(105))
	x := randomSparse(rng, [3]int64{3, 3, 3}, 6)
	c := testCluster()
	res, err := ParafacALS(c, x, 5, Options{Variant: DRI, MaxIters: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, lam := range res.Model.Lambda {
		if math.IsNaN(lam) || math.IsInf(lam, 0) {
			t.Fatalf("bad lambda %v", res.Model.Lambda)
		}
	}
	for _, f := range res.Model.Factors {
		for _, v := range f.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatal("NaN/Inf in factors")
			}
		}
	}
}

func TestSingleEntryTensor(t *testing.T) {
	x := tensor.New(4, 4, 4)
	x.Append(3, 1, 2, 3)
	x.Coalesce()
	c := testCluster()
	res, err := ParafacALS(c, x, 1, Options{Variant: DRI, MaxIters: 5, Seed: 1, TrackFit: true})
	if err != nil {
		t.Fatal(err)
	}
	// A single entry is exactly rank 1.
	if fit := res.Model.Fit(x); fit < 0.999 {
		t.Fatalf("fit %v on single-entry tensor", fit)
	}
}

func TestTuckerOnBinaryTensor(t *testing.T) {
	// bin(𝒳) == 𝒳 for a 0/1 tensor: 𝒯′ and 𝒯″ both come from the same
	// values; exercise the DRI path on it.
	rng := rand.New(rand.NewSource(106))
	x := tensor.New(6, 6, 6)
	for i := 0; i < 25; i++ {
		x.Append(1, rng.Int63n(6), rng.Int63n(6), rng.Int63n(6))
	}
	x.Coalesce()
	c := testCluster()
	if _, err := TuckerALS(c, x, []int{2, 2, 2}, Options{Variant: DRI, MaxIters: 3, Seed: 1}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickParafacMatchesBaselineToolbox is the differential sweep
// against the single-machine reference: the distributed ALS and the
// in-memory Toolbox start from the same seeded init and run the same
// algorithm, so after a fixed number of iterations their models must
// reconstruct the same tensor (summation order differs between the
// shuffle and the in-memory MTTKRP, hence the tolerance).
func TestQuickParafacMatchesBaselineToolbox(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := [3]int64{3 + rng.Int63n(3), 3 + rng.Int63n(3), 3 + rng.Int63n(3)}
		x := randomSparse(rng, dims, 6+rng.Intn(15))
		if x.NNZ() == 0 {
			return true
		}
		rank := 1 + rng.Intn(2)
		v := Variants[rng.Intn(len(Variants))]
		opt := Options{Variant: v, MaxIters: 2, Tol: 1e-12, Seed: seed}
		got, err := ParafacALS(testCluster(), x, rank, opt)
		if err != nil {
			t.Logf("distributed: %v", err)
			return false
		}
		tb := baseline.New(baseline.Config{})
		want, err := tb.ParafacALS(x, rank, baseline.Options{MaxIters: 2, Tol: 1e-12, Seed: seed})
		if err != nil {
			t.Logf("baseline: %v", err)
			return false
		}
		if got.Iters != want.Iters {
			t.Logf("iters %d vs %d", got.Iters, want.Iters)
			return false
		}
		for r := range got.Model.Lambda {
			if d := math.Abs(got.Model.Lambda[r] - want.Model.Lambda[r]); d > 1e-6*max1(want.Model.Lambda[r]) {
				t.Logf("lambda[%d]: %g vs %g", r, got.Model.Lambda[r], want.Model.Lambda[r])
				return false
			}
		}
		return modelsReconstructAlike(got.Model.At, want.Model.At, dims, 1e-6)
	}
	if err := quick.Check(f, qcfg(108)); err != nil {
		t.Fatal(err)
	}
}

// TestQuickTuckerMatchesBaselineToolbox is the Tucker half of the
// differential sweep: distributed HOOI against the in-memory MET-style
// reference, same seed, same iteration budget.
func TestQuickTuckerMatchesBaselineToolbox(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := [3]int64{3 + rng.Int63n(3), 3 + rng.Int63n(3), 3 + rng.Int63n(3)}
		x := randomSparse(rng, dims, 6+rng.Intn(15))
		if x.NNZ() == 0 {
			return true
		}
		v := Variants[rng.Intn(len(Variants))]
		opt := Options{Variant: v, MaxIters: 2, Tol: 1e-12, Seed: seed}
		got, err := TuckerALS(testCluster(), x, []int{2, 2, 2}, opt)
		if err != nil {
			t.Logf("distributed: %v", err)
			return false
		}
		tb := baseline.New(baseline.Config{})
		want, err := tb.TuckerALS(x, [3]int{2, 2, 2}, baseline.Options{MaxIters: 2, Tol: 1e-12, Seed: seed})
		if err != nil {
			t.Logf("baseline: %v", err)
			return false
		}
		return modelsReconstructAlike(got.Model.At, want.Model.At, dims, 1e-6)
	}
	if err := quick.Check(f, qcfg(109)); err != nil {
		t.Fatal(err)
	}
}

// modelsReconstructAlike compares two reconstructions entrywise over
// the full (small) index space, with an absolute-plus-relative bound.
func modelsReconstructAlike(got, want func(...int64) float64, dims [3]int64, tol float64) bool {
	for i := int64(0); i < dims[0]; i++ {
		for j := int64(0); j < dims[1]; j++ {
			for k := int64(0); k < dims[2]; k++ {
				g, w := got(i, j, k), want(i, j, k)
				if math.Abs(g-w) > tol*max1(math.Abs(w)) {
					return false
				}
			}
		}
	}
	return true
}

func max1(v float64) float64 {
	if v < 1 {
		return 1
	}
	return v
}

// TestQuickParafacScaleEquivariant is a metamorphic check: scaling the
// tensor by a power of two shifts only floating-point exponents, so the
// decomposition of α·𝒳 must have bit-identical factors and exactly
// α-scaled weights — through the full MapReduce pipeline.
func TestQuickParafacScaleEquivariant(t *testing.T) {
	const alpha = 4.0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := [3]int64{3 + rng.Int63n(3), 3 + rng.Int63n(3), 3 + rng.Int63n(3)}
		x := randomSparse(rng, dims, 6+rng.Intn(15))
		if x.NNZ() == 0 {
			return true
		}
		xs := x.Clone()
		for p := 0; p < xs.NNZ(); p++ {
			xs.SetValue(p, xs.Value(p)*alpha)
		}
		v := Variants[rng.Intn(len(Variants))]
		opt := Options{Variant: v, MaxIters: 2, Tol: 1e-12, Seed: seed}
		rank := 1 + rng.Intn(2)
		base, err := ParafacALS(testCluster(), x, rank, opt)
		if err != nil {
			return false
		}
		scaled, err := ParafacALS(testCluster(), xs, rank, opt)
		if err != nil {
			return false
		}
		for r := range base.Model.Lambda {
			if scaled.Model.Lambda[r] != alpha*base.Model.Lambda[r] {
				t.Logf("lambda[%d]: %g vs %g·%g", r, scaled.Model.Lambda[r], alpha, base.Model.Lambda[r])
				return false
			}
		}
		for m := range base.Model.Factors {
			fb, fs := base.Model.Factors[m], scaled.Model.Factors[m]
			for i := range fb.Data {
				if math.Float64bits(fb.Data[i]) != math.Float64bits(fs.Data[i]) {
					t.Logf("factor %d entry %d: %x vs %x", m, i,
						math.Float64bits(fb.Data[i]), math.Float64bits(fs.Data[i]))
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, qcfg(110)); err != nil {
		t.Fatal(err)
	}
}

// TestQuickParafacModePermutationEquivariant is the second metamorphic
// check: relabeling the mode-0 indices by a permutation must permute
// the mode-0 factor rows and leave the other factors and the weights
// unchanged. The first full ALS sweep overwrites every factor, so after
// it the result owes nothing to the (unpermuted) mode-0 init; summation
// order inside reduce groups does change, hence the tolerance.
func TestQuickParafacModePermutationEquivariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d0 := 3 + rng.Int63n(3)
		dims := [3]int64{d0, 3 + rng.Int63n(3), 3 + rng.Int63n(3)}
		x := randomSparse(rng, dims, 6+rng.Intn(15))
		if x.NNZ() == 0 {
			return true
		}
		perm := rng.Perm(int(d0))
		xp := tensor.New(dims[0], dims[1], dims[2])
		for p := 0; p < x.NNZ(); p++ {
			idx := x.Index(p)
			xp.Append(x.Value(p), int64(perm[idx[0]]), idx[1], idx[2])
		}
		xp.Coalesce()
		v := Variants[rng.Intn(len(Variants))]
		opt := Options{Variant: v, MaxIters: 2, Tol: 1e-12, Seed: seed}
		rank := 1 + rng.Intn(2)
		base, err := ParafacALS(testCluster(), x, rank, opt)
		if err != nil {
			return false
		}
		permuted, err := ParafacALS(testCluster(), xp, rank, opt)
		if err != nil {
			return false
		}
		const tol = 1e-6
		for r := range base.Model.Lambda {
			if math.Abs(permuted.Model.Lambda[r]-base.Model.Lambda[r]) > tol*max1(base.Model.Lambda[r]) {
				return false
			}
		}
		a0, a0p := base.Model.Factors[0], permuted.Model.Factors[0]
		for i := 0; i < a0.Rows; i++ {
			for c := 0; c < a0.Cols; c++ {
				if math.Abs(a0p.At(perm[i], c)-a0.At(i, c)) > tol {
					return false
				}
			}
		}
		for m := 1; m < 3; m++ {
			fb, fp := base.Model.Factors[m], permuted.Model.Factors[m]
			for i := range fb.Data {
				if math.Abs(fp.Data[i]-fb.Data[i]) > tol {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, qcfg(111)); err != nil {
		t.Fatal(err)
	}
}

func TestStagedFiberKeysCached(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	x := randomSparse(rng, [3]int64{5, 5, 5}, 12)
	c := testCluster()
	s, err := Stage(c, "X", x)
	if err != nil {
		t.Fatal(err)
	}
	f1, err := s.fiberKeys(1)
	if err != nil {
		t.Fatal(err)
	}
	reads := c.FS().Stats().RecordsRead
	f2, err := s.fiberKeys(1)
	if err != nil {
		t.Fatal(err)
	}
	if c.FS().Stats().RecordsRead != reads {
		t.Fatal("second fiberKeys call re-read the file")
	}
	if len(f1) != len(f2) {
		t.Fatal("cache returned different keys")
	}
	// Distinctness.
	seen := map[[2]int64]bool{}
	for _, k := range f1 {
		if seen[k] {
			t.Fatal("duplicate fiber key")
		}
		seen[k] = true
	}
}

package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/haten2/haten2/internal/matrix"
	"github.com/haten2/haten2/internal/tensor"
)

func random4Way(rng *rand.Rand, dims [4]int64, nnz int) *tensor.Tensor {
	t := tensor.New(dims[0], dims[1], dims[2], dims[3])
	for e := 0; e < nnz; e++ {
		t.Append(1+rng.Float64(), rng.Int63n(dims[0]), rng.Int63n(dims[1]), rng.Int63n(dims[2]), rng.Int63n(dims[3]))
	}
	t.Coalesce()
	return t
}

func TestStageOrderValidation(t *testing.T) {
	c := testCluster()
	x2 := tensor.New(2, 2)
	x2.Append(1, 0, 0)
	if _, err := Stage(c, "X", x2); err == nil {
		t.Fatal("order 2 accepted")
	}
	x5 := tensor.New(2, 2, 2, 2, 2)
	x5.Append(1, 0, 0, 0, 0, 0)
	if _, err := Stage(c, "X", x5); err == nil {
		t.Fatal("order 5 accepted")
	}
}

// pick returns the factors of the given modes.
func pick(factors []*matrix.Matrix, modes []int) []*matrix.Matrix {
	out := make([]*matrix.Matrix, len(modes))
	for i, m := range modes {
		out[i] = factors[m]
	}
	return out
}

// TestContractN4WayParafacMatchesMTTKRP checks the 4-way PairwiseMerge
// path against the in-memory N-way MTTKRP.
func TestContractN4WayParafacMatchesMTTKRP(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	dims := [4]int64{4, 5, 3, 4}
	x := random4Way(rng, dims, 30)
	const rank = 3
	factors := make([]*matrix.Matrix, 4)
	for m := range factors {
		factors[m] = matrix.Random(int(dims[m]), rank, rng)
	}
	c := testCluster()
	s, err := Stage(c, "X4", x)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 4; n++ {
		ys, err := s.contract(n, pick(factors, others(4, n)), DRI, pairwiseMerge)
		if err != nil {
			t.Fatalf("mode %d: %v", n, err)
		}
		got := kruskalProduct(ys, int(dims[n]), rank)
		want := tensor.MTTKRP(x, factors, n)
		if !got.Equal(want, 1e-9) {
			t.Fatalf("mode %d: 4-way MTTKRP mismatch", n)
		}
	}
}

// TestContractN4WayTuckerMatchesReference checks the 4-way CrossMerge
// path against chained in-memory n-mode products.
func TestContractN4WayTuckerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	dims := [4]int64{4, 4, 3, 3}
	x := random4Way(rng, dims, 25)
	core := []int{2, 3, 2, 2}
	factors := make([]*matrix.Matrix, 4)
	for m := range factors {
		factors[m] = matrix.Random(int(dims[m]), core[m], rng)
	}
	c := testCluster()
	s, err := Stage(c, "X4t", x)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 4; n++ {
		modes := others(4, n)
		ys, err := s.contract(n, pick(factors, modes), DRI, crossMerge)
		if err != nil {
			t.Fatalf("mode %d: %v", n, err)
		}
		// Reference: contract every other mode in sequence.
		ref := x
		for i := len(modes) - 1; i >= 0; i-- {
			ref = tensor.ModeMatrixProduct(ref, modes[i], factors[modes[i]].T())
		}
		// Compare entrywise.
		got := map[[4]int64]float64{}
		for _, e := range ys {
			// Q flattens the first two multiplied modes' columns
			// row-major; R is the last one's.
			var key [4]int64
			key[n] = e.I
			key[modes[0]] = int64(e.Q) / int64(core[modes[1]])
			key[modes[1]] = int64(e.Q) % int64(core[modes[1]])
			key[modes[2]] = int64(e.R)
			got[key] += e.Val
		}
		for p := 0; p < ref.NNZ(); p++ {
			idx := ref.Index(p)
			var key [4]int64
			copy(key[:], idx)
			if math.Abs(got[key]-ref.Value(p)) > 1e-9 {
				t.Fatalf("mode %d: mismatch at %v: got %v want %v", n, key, got[key], ref.Value(p))
			}
			delete(got, key)
		}
		for key, v := range got {
			if math.Abs(v) > 1e-9 {
				t.Fatalf("mode %d: spurious entry at %v: %v", n, key, v)
			}
		}
	}
}

// TestContractN3WayAgreesWith3WayPlan cross-checks the two
// instantiations of the stack: a 3-way tensor staged as an order-4
// tensor with a singleton last mode (and an all-ones factor for it) must
// contract to what the 3-way plan gives.
func TestContractN3WayAgreesWith3WayPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(203))
	x := randomSparse(rng, [3]int64{5, 6, 4}, 25)
	u1 := matrix.Random(6, 3, rng)
	u2 := matrix.Random(4, 3, rng)

	s1, _ := Stage(testCluster(), "X3", x)
	want, err := ParafacContract(s1, 0, u1, u2, DRI)
	if err != nil {
		t.Fatal(err)
	}

	x4 := tensor.New(5, 6, 4, 1)
	for p := 0; p < x.NNZ(); p++ {
		x4.Append(x.Value(p), append(x.Index(p), 0)...)
	}
	ones := matrix.New(1, 3)
	for i := range ones.Data {
		ones.Data[i] = 1
	}
	s2, err := Stage(testCluster(), "X3n", x4)
	if err != nil {
		t.Fatal(err)
	}
	ys, err := s2.contract(0, []*matrix.Matrix{u1, u2, ones}, DRI, pairwiseMerge)
	if err != nil {
		t.Fatal(err)
	}
	if !kruskalProduct(ys, 5, 3).Equal(want, 1e-9) {
		t.Fatal("order-4 plan disagrees with 3-way plan")
	}
}

func TestParafacALS4WayRecoversRank1(t *testing.T) {
	// An exactly rank-1 4-way tensor from positive factors.
	rng := rand.New(rand.NewSource(204))
	dims := []int64{4, 3, 4, 3}
	vecs := make([][]float64, 4)
	for m := range vecs {
		vecs[m] = make([]float64, dims[m])
		for i := range vecs[m] {
			vecs[m][i] = 0.5 + rng.Float64()
		}
	}
	x := tensor.New(dims...)
	var rec func(m int, coords []int64, v float64)
	rec = func(m int, coords []int64, v float64) {
		if m == 4 {
			x.Append(v, coords...)
			return
		}
		for i := int64(0); i < dims[m]; i++ {
			rec(m+1, append(coords, i), v*vecs[m][i])
		}
	}
	rec(0, nil, 1)
	x.Coalesce()
	c := testCluster()
	res, err := ParafacALS(c, x, 1, Options{Variant: DRI, MaxIters: 20, Seed: 1, TrackFit: true, Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if fit := res.Model.Fit(x); fit < 0.999 {
		t.Fatalf("4-way rank-1 fit %v (fits %v)", fit, res.Fits)
	}
}

func TestTuckerALS4Way(t *testing.T) {
	rng := rand.New(rand.NewSource(205))
	x := random4Way(rng, [4]int64{6, 5, 4, 3}, 40)
	c := testCluster()
	res, err := TuckerALS(c, x, []int{2, 2, 2, 2}, Options{Variant: DRI, MaxIters: 6, Seed: 2, Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	// Core norms non-decreasing and bounded by ‖X‖.
	for i := 1; i < len(res.CoreNorms); i++ {
		if res.CoreNorms[i] < res.CoreNorms[i-1]-1e-8 {
			t.Fatalf("‖G‖ decreased: %v", res.CoreNorms)
		}
	}
	if last := res.CoreNorms[len(res.CoreNorms)-1]; last > x.Norm()+1e-8 {
		t.Fatalf("‖G‖=%v exceeds ‖X‖=%v", last, x.Norm())
	}
	// Orthonormal factors.
	for m, f := range res.Model.Factors {
		if !matrix.Gram(f).Equal(matrix.Identity(f.Cols), 1e-8) {
			t.Fatalf("factor %d not orthonormal", m)
		}
	}
	// The model evaluates without NaNs.
	if v := res.Model.At(0, 0, 0, 0); math.IsNaN(v) {
		t.Fatal("NaN in model")
	}
}

func TestTuckerALS4WayValidation(t *testing.T) {
	c := testCluster()
	x := tensor.New(3, 3, 3, 3)
	x.Append(1, 0, 0, 0, 0)
	if _, err := TuckerALS(c, x, []int{2, 2, 2}, Options{}); err == nil {
		t.Fatal("wrong core arity accepted")
	}
	if _, err := TuckerALS(c, x, []int{2, 2, 2, 9}, Options{}); err == nil {
		t.Fatal("oversized core accepted")
	}
	if _, err := ParafacALS(c, x, 0, Options{}); err == nil {
		t.Fatal("rank 0 accepted")
	}
}

// TestQuickNWayParafacMatchesMTTKRP randomizes order (3 or 4), shapes,
// and mode.
func TestQuickNWayParafacMatchesMTTKRP(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		order := 3 + rng.Intn(2)
		dims := make([]int64, order)
		for m := range dims {
			dims[m] = 2 + rng.Int63n(4)
		}
		x := tensor.New(dims...)
		coords := make([]int64, order)
		for e := 0; e < 4+rng.Intn(15); e++ {
			for m := range coords {
				coords[m] = rng.Int63n(dims[m])
			}
			x.Append(rng.NormFloat64(), coords...)
		}
		x.Coalesce()
		if x.NNZ() == 0 {
			return true
		}
		rank := 1 + rng.Intn(3)
		factors := make([]*matrix.Matrix, order)
		for m := range factors {
			factors[m] = matrix.Random(int(dims[m]), rank, rng)
		}
		n := rng.Intn(order)
		s, err := Stage(testCluster(), "Xq", x)
		if err != nil {
			return false
		}
		ys, err := s.contract(n, pick(factors, others(order, n)), DRI, pairwiseMerge)
		if err != nil {
			return false
		}
		return kruskalProduct(ys, int(dims[n]), rank).Equal(tensor.MTTKRP(x, factors, n), 1e-9)
	}
	if err := quick.Check(f, qcfg(206)); err != nil {
		t.Fatal(err)
	}
}

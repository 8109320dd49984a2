package baseline

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/haten2/haten2/internal/matrix"
	"github.com/haten2/haten2/internal/tensor"
)

func planted(rng *rand.Rand, dims [3]int64, rank int) *tensor.Tensor {
	k := &tensor.Kruskal{Lambda: make([]float64, rank)}
	for m := 0; m < 3; m++ {
		f := matrix.Random(int(dims[m]), rank, rng)
		f.NormalizeColumns()
		k.Factors = append(k.Factors, f)
	}
	for r := range k.Lambda {
		k.Lambda[r] = 2 + rng.Float64()
	}
	return k.Full(dims[0], dims[1], dims[2]).ToSparse()
}

func TestParafacALSFitsPlantedModel(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	x := planted(rng, [3]int64{8, 7, 6}, 2)
	tb := New(Config{})
	res, err := tb.ParafacALS(x, 2, Options{MaxIters: 300, Seed: 1, TrackFit: true, Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if fit := res.Model.Fit(x); fit < 0.99 {
		t.Fatalf("fit %v after %d iters", fit, res.Iters)
	}
	if res.ModeledSeconds <= 0 || res.PeakBytes <= 0 {
		t.Fatalf("missing cost accounting: %+v", res)
	}
}

func TestTuckerALSFitsLowRankTensor(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	x := planted(rng, [3]int64{8, 7, 6}, 2)
	tb := New(Config{})
	res, err := tb.TuckerALS(x, [3]int{2, 2, 2}, Options{MaxIters: 30, Seed: 2, Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if fit := res.Model.Fit(x); fit < 0.99 {
		t.Fatalf("fit %v, core norms %v", fit, res.CoreNorms)
	}
	for m, f := range res.Model.Factors {
		if !matrix.Gram(f).Equal(matrix.Identity(f.Cols), 1e-8) {
			t.Fatalf("factor %d not orthonormal", m)
		}
	}
}

func TestOutOfMemoryOnBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	x := planted(rng, [3]int64{20, 20, 20}, 3)
	tb := New(Config{MemoryBudget: 1024}) // absurdly small
	_, err := tb.ParafacALS(x, 3, Options{MaxIters: 2, Seed: 1})
	var oom *ErrOutOfMemory
	if !errors.As(err, &oom) {
		t.Fatalf("want ErrOutOfMemory, got %v", err)
	}
	_, err = tb.TuckerALS(x, [3]int{3, 3, 3}, Options{MaxIters: 2, Seed: 1})
	if !errors.As(err, &oom) {
		t.Fatalf("want ErrOutOfMemory for Tucker, got %v", err)
	}
}

func TestTuckerOOMScalesWithCoreSize(t *testing.T) {
	// The MET intermediate grows with Q, so a budget that fits a small
	// core must fail on a larger one — the Fig. 1(c) effect.
	rng := rand.New(rand.NewSource(64))
	x := planted(rng, [3]int64{30, 30, 30}, 2)
	// Budget: enough for core 2³ but not 20³ (the intermediate grows ×Q).
	small, err := New(Config{MemoryBudget: 8 << 20}).TuckerALS(x, [3]int{2, 2, 2}, Options{MaxIters: 2, Seed: 1})
	if err != nil {
		t.Fatalf("small core should fit: %v", err)
	}
	if small.PeakBytes <= 0 {
		t.Fatal("no peak recorded")
	}
	_, err = New(Config{MemoryBudget: 8 << 20}).TuckerALS(x, [3]int{20, 20, 20}, Options{MaxIters: 2, Seed: 1})
	var oom *ErrOutOfMemory
	if !errors.As(err, &oom) {
		t.Fatalf("large core should exhaust the budget, got %v", err)
	}
}

func TestValidation(t *testing.T) {
	tb := New(Config{})
	x2 := tensor.New(2, 2)
	x2.Append(1, 0, 0)
	if _, err := tb.ParafacALS(x2, 1, Options{}); err == nil {
		t.Fatal("2-way tensor accepted by ParafacALS")
	}
	if _, err := tb.TuckerALS(x2, [3]int{1, 1, 1}, Options{}); err == nil {
		t.Fatal("2-way tensor accepted by TuckerALS")
	}
	x3 := tensor.New(2, 2, 2)
	x3.Append(1, 0, 0, 0)
	if _, err := tb.ParafacALS(x3, 0, Options{}); err == nil {
		t.Fatal("rank 0 accepted")
	}
	if _, err := tb.TuckerALS(x3, [3]int{5, 1, 1}, Options{}); err == nil {
		t.Fatal("oversized core accepted")
	}
}

func TestModeledTimeGrowsWithWork(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	small := planted(rng, [3]int64{6, 6, 6}, 2)
	big := planted(rng, [3]int64{14, 14, 14}, 2)
	tb := New(Config{})
	rs, err := tb.ParafacALS(small, 2, Options{MaxIters: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := tb.ParafacALS(big, 2, Options{MaxIters: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rb.ModeledSeconds <= rs.ModeledSeconds {
		t.Fatalf("bigger tensor should model slower: %v vs %v", rb.ModeledSeconds, rs.ModeledSeconds)
	}
}

package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"github.com/haten2/haten2/internal/matrix"
	"github.com/haten2/haten2/internal/mr"
	"github.com/haten2/haten2/internal/tensor"
)

// bitsEqual compares two matrices byte-for-byte (float64 bit patterns,
// not a tolerance): the acceptance bar for checkpoint recovery.
func bitsEqual(a, b *matrix.Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

func assertKruskalBitsEqual(t *testing.T, want, got *tensor.Kruskal) {
	t.Helper()
	if len(want.Lambda) != len(got.Lambda) {
		t.Fatalf("rank differs: %d vs %d", len(want.Lambda), len(got.Lambda))
	}
	for r := range want.Lambda {
		if math.Float64bits(want.Lambda[r]) != math.Float64bits(got.Lambda[r]) {
			t.Fatalf("lambda[%d] differs bitwise: %v vs %v", r, want.Lambda[r], got.Lambda[r])
		}
	}
	for m := range want.Factors {
		if !bitsEqual(want.Factors[m], got.Factors[m]) {
			t.Fatalf("factor %d differs bitwise", m)
		}
	}
}

// TestParafacCheckpointResumeBitIdentical is the issue's acceptance
// scenario end to end: a PARAFAC run under a non-trivial fault plan
// (task failures, stragglers, and a cluster kill mid-run) is resumed
// from its checkpoints on a fresh cluster sharing the surviving DFS,
// and the final model is byte-for-byte identical to an uninterrupted
// fault-free run.
func TestParafacCheckpointResumeBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	x := randomSparse(rng, [3]int64{12, 10, 8}, 80)
	opt := Options{Variant: DRI, MaxIters: 6, Tol: 1e-12, Seed: 17, TrackFit: true}

	// Reference: fault-free, no checkpointing.
	ref, err := ParafacALS(testCluster(), x, 3, opt)
	if err != nil {
		t.Fatal(err)
	}

	// Checkpointing alone must not perturb the result.
	opt.Checkpoint = "models/parafac"
	ckOnly, err := ParafacALS(testCluster(), x, 3, opt)
	if err != nil {
		t.Fatal(err)
	}
	assertKruskalBitsEqual(t, ref.Model, ckOnly.Model)

	// Faulty run: retries and stragglers throughout, and the cluster is
	// killed after enough jobs for roughly half the iterations (DRI runs
	// a handful of jobs per sweep).
	c1 := testCluster()
	c1.InstallFaultPlan(&mr.FaultPlan{
		Seed:          4,
		FailureRate:   0.2,
		StragglerRate: 0.1,
		MaxAttempts:   32,
		KillAfterJobs: 20,
	})
	_, err = ParafacALS(c1, x, 3, opt)
	var ck *mr.ErrClusterKilled
	if !errors.As(err, &ck) {
		t.Fatalf("want ErrClusterKilled mid-run, got %v", err)
	}
	// At least one checkpoint must have been committed before the kill.
	if st, err := loadCheckpoint(c1, opt.Checkpoint, "parafac"); err != nil || st == nil || st.iters == 0 {
		t.Fatalf("no checkpoint survived the kill: state=%+v err=%v", st, err)
	}

	// Restart: new cluster (fresh JobTracker), same DFS, still-faulty but
	// unkilled plan. The driver resumes from the checkpoint.
	c2 := mr.NewClusterWithFS(mr.Config{Machines: 4, SlotsPerMachine: 2}, c1.FS())
	c2.InstallFaultPlan(&mr.FaultPlan{
		Seed:          5,
		FailureRate:   0.2,
		StragglerRate: 0.1,
		MaxAttempts:   32,
	})
	resumed, err := ParafacALS(c2, x, 3, opt)
	if err != nil {
		t.Fatal(err)
	}
	assertKruskalBitsEqual(t, ref.Model, resumed.Model)
	if resumed.Iters != ref.Iters {
		t.Fatalf("resumed run iterated %d times, reference %d", resumed.Iters, ref.Iters)
	}
	if len(resumed.Fits) != len(ref.Fits) {
		t.Fatalf("fit history length differs: %d vs %d", len(resumed.Fits), len(ref.Fits))
	}
	for i := range ref.Fits {
		if math.Float64bits(resumed.Fits[i]) != math.Float64bits(ref.Fits[i]) {
			t.Fatalf("fit[%d] differs bitwise: %v vs %v", i, resumed.Fits[i], ref.Fits[i])
		}
	}
	// The faulty clusters actually injected something.
	if c1.Totals().TaskRetries == 0 && c2.Totals().TaskRetries == 0 {
		t.Fatal("fault plans injected no retries; scenario is vacuous")
	}
}

// TestTuckerCheckpointResumeBitIdentical covers the same scenario for
// the Tucker driver: kill mid-run, resume on the surviving DFS, compare
// factors and core bitwise.
func TestTuckerCheckpointResumeBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := randomSparse(rng, [3]int64{10, 9, 8}, 70)
	core := []int{3, 2, 2}
	opt := Options{Variant: DRI, MaxIters: 5, Tol: 1e-12, Seed: 23}

	ref, err := TuckerALS(testCluster(), x, core, opt)
	if err != nil {
		t.Fatal(err)
	}

	opt.Checkpoint = "models/tucker"
	c1 := testCluster()
	c1.InstallFaultPlan(&mr.FaultPlan{Seed: 9, FailureRate: 0.15, MaxAttempts: 32, KillAfterJobs: 12})
	_, err = TuckerALS(c1, x, core, opt)
	var ck *mr.ErrClusterKilled
	if !errors.As(err, &ck) {
		t.Fatalf("want ErrClusterKilled mid-run, got %v", err)
	}

	c2 := mr.NewClusterWithFS(mr.Config{Machines: 4, SlotsPerMachine: 2}, c1.FS())
	resumed, err := TuckerALS(c2, x, core, opt)
	if err != nil {
		t.Fatal(err)
	}
	for m := range ref.Model.Factors {
		if !bitsEqual(ref.Model.Factors[m], resumed.Model.Factors[m]) {
			t.Fatalf("Tucker factor %d differs bitwise after resume", m)
		}
	}
	for i := range ref.Model.Core.Data {
		if math.Float64bits(ref.Model.Core.Data[i]) != math.Float64bits(resumed.Model.Core.Data[i]) {
			t.Fatalf("Tucker core entry %d differs bitwise after resume", i)
		}
	}
	if resumed.Iters != ref.Iters || len(resumed.CoreNorms) != len(ref.CoreNorms) {
		t.Fatalf("iteration history differs: %d/%d vs %d/%d",
			resumed.Iters, len(resumed.CoreNorms), ref.Iters, len(ref.CoreNorms))
	}
}

// TestCheckpointPruneAndMismatch covers the maintenance paths: only the
// newest checkpoint is retained, a converged checkpoint short-circuits,
// and shape/type mismatches are reported rather than resumed.
func TestCheckpointPruneAndMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := randomSparse(rng, [3]int64{8, 7, 6}, 40)
	c := testCluster()
	opt := Options{Variant: DRI, MaxIters: 4, Tol: 1e-12, Seed: 1, Checkpoint: "ck/p"}
	res, err := ParafacALS(c, x, 2, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Exactly one checkpoint file remains, at the final iteration.
	var ckpts []string
	for _, n := range c.FS().List() {
		if _, ok := ckptIter("ck/p", n); ok {
			ckpts = append(ckpts, n)
		}
	}
	if len(ckpts) != 1 || ckpts[0] != ckptName("ck/p", res.Iters) {
		t.Fatalf("prune left %v, want just iteration %d", ckpts, res.Iters)
	}

	// Re-running with the finished checkpoint resumes instantly: no new
	// cluster jobs beyond staging.
	before := c.Totals().Jobs
	again, err := ParafacALS(c, x, 2, opt)
	if err != nil {
		t.Fatal(err)
	}
	assertKruskalBitsEqual(t, res.Model, again.Model)
	if c.Totals().Jobs != before {
		t.Fatalf("finished checkpoint still ran %d jobs", c.Totals().Jobs-before)
	}

	// Rank mismatch is an error, not a silent restart.
	if _, err := ParafacALS(c, x, 3, opt); err == nil {
		t.Fatal("rank-mismatched checkpoint resumed silently")
	}
	// Driver-type mismatch too.
	if _, err := TuckerALS(c, x, []int{2, 2, 2}, opt); err == nil {
		t.Fatal("Tucker resumed from a PARAFAC checkpoint")
	}
}

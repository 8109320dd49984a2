package core

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"github.com/haten2/haten2/internal/mr"
	"github.com/haten2/haten2/internal/tensor"
)

// TestParafacDRIDeterministicAcrossProcs is the engine's acceptance
// property: full PARAFAC-DRI iterations must produce bit-identical
// model outputs and exact, identical job counters across repeated runs
// and across GOMAXPROCS settings. Reduce input order is fixed by (task,
// emission) order, so floating-point summation order — and therefore
// every factor value — cannot depend on scheduling.
func TestParafacDRIDeterministicAcrossProcs(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	x := randomSparse(rng, [3]int64{40, 30, 20}, 4000)
	type outcome struct {
		model *tensor.Kruskal
		jobs  []mr.JobStats
	}
	run := func(procs int) outcome {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		c := testCluster()
		res, err := ParafacALS(c, x, 5, Options{Variant: DRI, MaxIters: 2, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		jobs := c.Jobs()
		// The staged tensor gets a fresh temp name each run, which is
		// embedded in job names; blank them so the comparison covers
		// exactly the counters (including SimSeconds, a pure function
		// of the counters).
		for i := range jobs {
			jobs[i].Name = ""
		}
		return outcome{model: res.Model, jobs: jobs}
	}
	base := run(1)
	if len(base.jobs) == 0 {
		t.Fatal("no jobs recorded")
	}
	for _, procs := range []int{1, 2, 4, 8} {
		for rep := 0; rep < 2; rep++ {
			got := run(procs)
			if !reflect.DeepEqual(base.model, got.model) {
				t.Fatalf("GOMAXPROCS=%d rep %d: model differs from baseline", procs, rep)
			}
			if !reflect.DeepEqual(base.jobs, got.jobs) {
				t.Fatalf("GOMAXPROCS=%d rep %d: job counters differ:\nbase %+v\ngot  %+v",
					procs, rep, base.jobs, got.jobs)
			}
		}
	}
}

// TestTuckerDRIDeterministicAcrossProcs covers the CrossMerge side of
// the engine with the same property. CrossMerge reducers accumulate per
// (q, r) cell and walk coordinates and cells in first-seen order, so
// Tucker is bit-deterministic too. GOMAXPROCS=2 is the smallest width at
// which the first wave of map tasks runs concurrently.
func TestTuckerDRIDeterministicAcrossProcs(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	x := randomSparse(rng, [3]int64{18, 14, 10}, 600)
	run := func(procs int) *TuckerResult {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		c := testCluster()
		res, err := TuckerALS(c, x, []int{3, 3, 3}, Options{Variant: DRI, MaxIters: 2, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(1)
	for _, procs := range []int{2, 4} {
		got := run(procs)
		if !reflect.DeepEqual(base.Model, got.Model) {
			t.Fatalf("GOMAXPROCS=%d: Tucker model differs from baseline", procs)
		}
		if !reflect.DeepEqual(base.CoreNorms, got.CoreNorms) {
			t.Fatalf("GOMAXPROCS=%d: core norms differ: %v vs %v", procs, base.CoreNorms, got.CoreNorms)
		}
	}
}

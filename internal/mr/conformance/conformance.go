// Package conformance holds the cross-backend conformance suite: a
// reusable battery every mr.Backend implementation must pass to claim
// the engine's standing invariant — backends may change wall-clock time
// and transport statistics, never output bytes.
//
// The suite replays the nine golden traces of internal/obs (eight
// method×variant runs plus the storage-fault run) with the backend
// installed and requires byte-identical Chrome traces; sweeps the fault
// matrix (compute faults and storage faults across GOMAXPROCS 1, 4,
// and 16) against an in-process baseline; and runs PARAFAC and Tucker
// differentially, requiring bit-identical factor bytes — not approximate
// equality — between the backend and the in-process engine.
//
// Usage, from any backend's package:
//
//	func TestConformance(t *testing.T) {
//		conformance.RunConformance(t, func(t *testing.T) mr.Backend {
//			return newMyBackend(t)
//		})
//	}
//
// The factory is called once per cluster; the suite closes each backend
// when its sub-test ends. A nil-returning factory runs the suite
// against the in-process engine itself, which pins the suite's baseline
// expectations.
package conformance

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/haten2/haten2/internal/core"
	"github.com/haten2/haten2/internal/dfs"
	"github.com/haten2/haten2/internal/gen"
	"github.com/haten2/haten2/internal/mr"
	"github.com/haten2/haten2/internal/obs"
	"github.com/haten2/haten2/internal/tensor"
)

// Factory builds a fresh backend for one cluster. It is called once
// per cluster the suite creates (a backend's partition namespace is
// keyed by job name and cluster-scoped sequence number, so clusters
// must not share one). Returning nil selects the in-process engine.
type Factory func(t *testing.T) mr.Backend

// RunConformance executes the full conformance suite against backends
// produced by newBackend.
func RunConformance(t *testing.T, newBackend Factory) {
	t.Run("golden-traces", func(t *testing.T) { goldenTraces(t, newBackend) })
	t.Run("golden-storage-trace", func(t *testing.T) { goldenStorage(t, newBackend) })
	t.Run("fault-matrix", func(t *testing.T) { faultMatrix(t, newBackend) })
	t.Run("differential-parafac", func(t *testing.T) { differentialParafac(t, newBackend) })
	t.Run("differential-tucker", func(t *testing.T) { differentialTucker(t, newBackend) })
}

// install builds a backend for c and registers its teardown. It
// returns c for chaining.
func install(t *testing.T, c *mr.Cluster, newBackend Factory) *mr.Cluster {
	t.Helper()
	b := newBackend(t)
	if b == nil {
		return c
	}
	c.SetBackend(b)
	t.Cleanup(func() {
		if err := b.Close(); err != nil {
			t.Errorf("backend close: %v", err)
		}
	})
	return c
}

// goldenDir resolves internal/obs/testdata relative to this source
// file, so the suite finds the checked-in goldens no matter which
// package's test binary runs it.
func goldenDir(t *testing.T) string {
	t.Helper()
	_, self, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("conformance: cannot locate source directory")
	}
	return filepath.Join(filepath.Dir(self), "..", "..", "obs", "testdata")
}

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	want, err := os.ReadFile(filepath.Join(goldenDir(t), name))
	if err != nil {
		t.Fatalf("golden fixture: %v (regenerate with `go test ./internal/obs -run Golden -update`)", err)
	}
	return want
}

// goldenTraces replays the eight method×variant golden runs with the
// backend installed. The Chrome trace fingerprints the engine's
// schedule, counters, and cost attribution, so byte-equality here means
// the backend perturbed nothing observable.
func goldenTraces(t *testing.T, newBackend Factory) {
	for _, method := range []string{"parafac", "tucker"} {
		for _, v := range []core.Variant{core.Naive, core.DNN, core.DRN, core.DRI} {
			method, v := method, v
			t.Run(fmt.Sprintf("%s-%v", method, v), func(t *testing.T) {
				x := gen.Random(11, [3]int64{6, 6, 6}, 24)
				c := install(t, mr.NewCluster(mr.Config{Machines: 2, SlotsPerMachine: 2}), newBackend)
				tr := obs.NewTracer()
				c.SetTracer(tr)
				opt := core.Options{Variant: v, MaxIters: 2, Tol: 1e-12, Seed: 7}
				var err error
				switch method {
				case "parafac":
					_, err = core.ParafacALS(c, x, 2, opt)
				case "tucker":
					_, err = core.TuckerALS(c, x, []int{2, 2, 2}, opt)
				}
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := tr.WriteChromeTrace(&buf); err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%s-%s.trace.json", method, strings.ToLower(v.String()))
				if want := readGolden(t, name); !bytes.Equal(buf.Bytes(), want) {
					t.Fatalf("trace differs from golden %s (%d vs %d bytes): backend changed observable behavior",
						name, buf.Len(), len(want))
				}
			})
		}
	}
}

// goldenStorage replays the ninth golden: PARAFAC-DRI on a tiny-block,
// replication-3 DFS under the pinned corruption/loss plan. Failover and
// scrub attribution must survive the backend unchanged.
func goldenStorage(t *testing.T, newBackend Factory) {
	x := gen.Random(11, [3]int64{6, 6, 6}, 24)
	c := install(t, mr.NewClusterWithFS(mr.Config{Machines: 2, SlotsPerMachine: 2},
		dfs.New(dfs.Options{BlockSize: 256, Replication: 3, Machines: 3})), newBackend)
	c.InstallFaultPlan(&mr.FaultPlan{Seed: 1, BlockCorruptRate: 0.1, ReplicaLossRate: 0.05})
	tr := obs.NewTracer()
	c.SetTracer(tr)
	if _, err := core.ParafacALS(c, x, 2, core.Options{Variant: core.DRI, MaxIters: 2, Tol: 1e-12, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	if tot := c.Totals(); tot.CorruptBlocks == 0 || tot.LostReplicas == 0 {
		t.Fatalf("pinned storage plan injected nothing: %+v", tot)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if want := readGolden(t, "parafac-dri-storage.trace.json"); !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("storage trace differs from golden (%d vs %d bytes)", buf.Len(), len(want))
	}
}

// faultMatrix sweeps fault plans across GOMAXPROCS settings. For every
// (plan, procs) cell the backend run's model and job counters must
// equal the in-process baseline of the same plan: fault injection is
// decided by pure hashes over the job sequence, so neither host
// scheduling nor the data plane may move a single retry.
func faultMatrix(t *testing.T, newBackend Factory) {
	plans := []struct {
		name string
		plan mr.FaultPlan
	}{
		{"task-faults", mr.FaultPlan{Seed: 1, FailureRate: 0.2, StragglerRate: 0.2}},
		{"storage-faults", mr.FaultPlan{Seed: 1, BlockCorruptRate: 0.1, ReplicaLossRate: 0.05}},
	}
	x := gen.Random(11, [3]int64{6, 6, 6}, 24)
	run := func(t *testing.T, factory Factory, plan mr.FaultPlan) (*tensor.Kruskal, []mr.JobStats) {
		t.Helper()
		c := mr.NewClusterWithFS(mr.Config{Machines: 2, SlotsPerMachine: 2},
			dfs.New(dfs.Options{BlockSize: 256, Replication: 3, Machines: 3}))
		if factory != nil {
			c = install(t, c, factory)
		}
		c.InstallFaultPlan(&plan)
		res, err := core.ParafacALS(c, x, 2, core.Options{Variant: core.DRI, MaxIters: 2, Tol: 1e-12, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		jobs := c.Jobs()
		for i := range jobs {
			// Temp-file numbers embedded in job names are cluster-scoped
			// and already deterministic; blanking them keeps the
			// comparison strictly about counters.
			jobs[i].Name = ""
		}
		return res.Model, jobs
	}
	for _, pc := range plans {
		pc := pc
		t.Run(pc.name, func(t *testing.T) {
			baseModel, baseJobs := run(t, nil, pc.plan)
			for _, procs := range []int{1, 4, 16} {
				procs := procs
				t.Run(fmt.Sprintf("procs-%d", procs), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					model, jobs := run(t, newBackend, pc.plan)
					if !modelBitsEqual(baseModel, model) {
						t.Fatal("factor bytes differ from in-process baseline under faults")
					}
					if !reflect.DeepEqual(baseJobs, jobs) {
						t.Fatalf("job counters differ from baseline:\nbase %+v\ngot  %+v", baseJobs, jobs)
					}
				})
			}
		})
	}
}

// differentialParafac runs PARAFAC on a larger tensor than the goldens
// use, on the backend and in process, per variant, and requires
// bit-identical factors, lambdas, and counters.
func differentialParafac(t *testing.T, newBackend Factory) {
	x := gen.Random(42, [3]int64{12, 10, 8}, 240)
	for _, v := range []core.Variant{core.DNN, core.DRI} {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			opt := core.Options{Variant: v, MaxIters: 3, Tol: 1e-12, Seed: 5}
			base := mr.NewCluster(mr.Config{Machines: 3, SlotsPerMachine: 2})
			want, err := core.ParafacALS(base, x, 3, opt)
			if err != nil {
				t.Fatal(err)
			}
			c := install(t, mr.NewCluster(mr.Config{Machines: 3, SlotsPerMachine: 2}), newBackend)
			got, err := core.ParafacALS(c, x, 3, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !modelBitsEqual(want.Model, got.Model) {
				t.Fatal("factor bytes differ from in-process engine")
			}
			if got.Iters != want.Iters || got.Converged != want.Converged {
				t.Fatalf("trajectory differs: iters %d/%d converged %v/%v",
					got.Iters, want.Iters, got.Converged, want.Converged)
			}
			if a, b := base.Totals(), c.Totals(); a != b {
				t.Fatalf("counters differ:\nbase %+v\ngot  %+v", a, b)
			}
		})
	}
}

// differentialTucker is differentialParafac for the Tucker side, which
// exercises the CrossMerge jobs and their distinct shuffle types.
func differentialTucker(t *testing.T, newBackend Factory) {
	x := gen.Random(43, [3]int64{10, 9, 8}, 200)
	opt := core.Options{Variant: core.DRI, MaxIters: 2, Tol: 1e-12, Seed: 5}
	base := mr.NewCluster(mr.Config{Machines: 3, SlotsPerMachine: 2})
	want, err := core.TuckerALS(base, x, []int{2, 2, 2}, opt)
	if err != nil {
		t.Fatal(err)
	}
	c := install(t, mr.NewCluster(mr.Config{Machines: 3, SlotsPerMachine: 2}), newBackend)
	got, err := core.TuckerALS(c, x, []int{2, 2, 2}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Model, got.Model) {
		t.Fatal("Tucker model differs from in-process engine")
	}
	if !floatsBitsEqual(want.CoreNorms, got.CoreNorms) {
		t.Fatalf("core norms differ: %v vs %v", got.CoreNorms, want.CoreNorms)
	}
	if a, b := base.Totals(), c.Totals(); a != b {
		t.Fatalf("counters differ:\nbase %+v\ngot  %+v", a, b)
	}
}

// modelBitsEqual compares two Kruskal models bit-for-bit — Float64bits
// equality, stricter than ==, which would admit differing NaN payloads
// and conflate ±0.
func modelBitsEqual(a, b *tensor.Kruskal) bool {
	if len(a.Lambda) != len(b.Lambda) || len(a.Factors) != len(b.Factors) {
		return false
	}
	if !floatsBitsEqual(a.Lambda, b.Lambda) {
		return false
	}
	for i := range a.Factors {
		fa, fb := a.Factors[i], b.Factors[i]
		if fa.Rows != fb.Rows || fa.Cols != fb.Cols || !floatsBitsEqual(fa.Data, fb.Data) {
			return false
		}
	}
	return true
}

func floatsBitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

package obs_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"github.com/haten2/haten2/internal/core"
	"github.com/haten2/haten2/internal/dfs"
	"github.com/haten2/haten2/internal/gen"
	"github.com/haten2/haten2/internal/mr"
	"github.com/haten2/haten2/internal/obs"
)

var update = flag.Bool("update", false, "rewrite the golden trace fixtures in testdata/")

// goldenRun executes a small 2-iteration ALS run on a fresh cluster
// with a tracer attached and returns the Chrome trace bytes. Every
// input is pinned (seed, tensor shape, cluster size, iteration count),
// so the bytes are a complete fingerprint of the engine's scheduling,
// cost attribution, and plan structure for that method/variant.
func goldenRun(t *testing.T, method string, v core.Variant) []byte {
	t.Helper()
	x := gen.Random(11, [3]int64{6, 6, 6}, 24)
	c := mr.NewCluster(mr.Config{Machines: 2, SlotsPerMachine: 2})
	tr := obs.NewTracer()
	c.SetTracer(tr)
	opt := core.Options{Variant: v, MaxIters: 2, Tol: 1e-12, Seed: 7}
	var err error
	switch method {
	case "parafac":
		_, err = core.ParafacALS(c, x, 2, opt)
	case "tucker":
		_, err = core.TuckerALS(c, x, []int{2, 2, 2}, opt)
	default:
		t.Fatalf("unknown method %q", method)
	}
	if err != nil {
		t.Fatalf("%s/%v: %v", method, v, err)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func goldenPath(method string, v core.Variant) string {
	return filepath.Join("testdata", fmt.Sprintf("%s-%s.trace.json", method, strings.ToLower(v.String())))
}

// TestGoldenTraces pins the full trace of every method x variant pair
// byte-for-byte. A diff here means the engine's simulated schedule or
// the planner's job structure changed — either intentionally (rerun
// with -update and review the diff) or as a determinism regression.
func TestGoldenTraces(t *testing.T) {
	for _, method := range []string{"parafac", "tucker"} {
		for _, v := range []core.Variant{core.Naive, core.DNN, core.DRN, core.DRI} {
			method, v := method, v
			t.Run(fmt.Sprintf("%s-%v", method, v), func(t *testing.T) {
				got := goldenRun(t, method, v)
				path := goldenPath(method, v)
				if *update {
					if err := os.WriteFile(path, got, 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("%v (run `go test ./internal/obs -run Golden -update` to create)", err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("trace differs from %s (%d vs %d bytes); rerun with -update if the change is intentional",
						path, len(got), len(want))
				}
			})
		}
	}
}

// goldenStorageRun is goldenRun on a tiny-block, replication-3 DFS
// under a pinned corruption/loss plan (seed 1 survives: every bad
// replica has a good sibling to fail over to). The trace gains
// "failover" and "scrub" phases whose durations come from the
// deterministic storage counters.
func goldenStorageRun(t *testing.T) []byte {
	t.Helper()
	x := gen.Random(11, [3]int64{6, 6, 6}, 24)
	c := mr.NewClusterWithFS(mr.Config{Machines: 2, SlotsPerMachine: 2},
		dfs.New(dfs.Options{BlockSize: 256, Replication: 3, Machines: 3}))
	c.InstallFaultPlan(&mr.FaultPlan{Seed: 1, BlockCorruptRate: 0.1, ReplicaLossRate: 0.05})
	tr := obs.NewTracer()
	c.SetTracer(tr)
	_, err := core.ParafacALS(c, x, 2, core.Options{Variant: core.DRI, MaxIters: 2, Tol: 1e-12, Seed: 7})
	if err != nil {
		t.Fatalf("storage golden run: %v", err)
	}
	if tot := c.Totals(); tot.CorruptBlocks == 0 || tot.LostReplicas == 0 {
		t.Fatalf("pinned storage plan injected nothing: %+v", tot)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenTraceStorage pins the PARAFAC-DRI trace under the seeded
// storage fault plan byte-for-byte, including the failover and scrub
// spans, across GOMAXPROCS settings: replica failover and read-repair
// are charged from pure hash decisions, so host scheduling owes them
// nothing.
func TestGoldenTraceStorage(t *testing.T) {
	got := goldenStorageRun(t)
	if !bytes.Contains(got, []byte(`"failover"`)) || !bytes.Contains(got, []byte(`"scrub"`)) {
		t.Fatal("storage trace lacks failover/scrub phases")
	}
	path := filepath.Join("testdata", "parafac-dri-storage.trace.json")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/obs -run Golden -update` to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("storage trace differs from %s (%d vs %d bytes); rerun with -update if intentional",
			path, len(got), len(want))
	}
	for _, procs := range []int{1, 4, 16} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			if again := goldenStorageRun(t); !bytes.Equal(again, want) {
				t.Fatalf("GOMAXPROCS=%d: storage trace differs from golden", procs)
			}
		}()
	}
}

// TestGoldenTraceAcrossProcs is the headline acceptance check: the
// 2-iteration PARAFAC-DRI Chrome trace must be byte-identical across
// GOMAXPROCS settings and across repeated runs, and must match the
// checked-in golden. Simulated time owes nothing to host scheduling.
func TestGoldenTraceAcrossProcs(t *testing.T) {
	want, err := os.ReadFile(goldenPath("parafac", core.DRI))
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/obs -run Golden -update` first)", err)
	}
	for _, procs := range []int{1, 4, 16} {
		for rep := 0; rep < 2; rep++ {
			func() {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				got := goldenRun(t, "parafac", core.DRI)
				if !bytes.Equal(got, want) {
					t.Fatalf("GOMAXPROCS=%d rep=%d: trace differs from golden", procs, rep)
				}
			}()
		}
	}
}

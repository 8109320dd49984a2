// Package conformance holds the cross-backend conformance suite: a
// reusable battery every mr.Backend implementation must pass to claim
// the engine's standing invariant — backends may change wall-clock time
// and transport statistics, never output bytes.
//
// The suite replays the nine golden traces of internal/obs with the
// backend installed, sweeps the fault matrix against an in-process
// baseline, and requires bit-identical factors from PARAFAC and Tucker
// on both. It holds the seam to what the plans wrote: the partitions
// shipped are the shuffle bytes charged, a block overwritten once its
// loan ends changes nothing, five reducers route by modulo across it, a
// job without a block codec is refused before it starts, and an empty
// shuffle crosses nothing. A shuffle lost mid-decomposition fails the
// job, and a fresh cluster resumes from the checkpoints.
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
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
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
	t.Run("shipped-equals-charged", func(t *testing.T) { shippedEqualsCharged(t, newBackend) })
	t.Run("blocks-lent", func(t *testing.T) { blocksLent(t, newBackend) })
	t.Run("modulo-routing", func(t *testing.T) { moduloRouting(t, newBackend) })
	t.Run("no-codec-refused", func(t *testing.T) { noCodecRefused(t, newBackend) })
	t.Run("empty-shuffle", func(t *testing.T) { emptyShuffle(t, newBackend) })
	t.Run("lost-shuffle-resume", func(t *testing.T) { lostShuffleResume(t, newBackend) })
}

// meter sits between the engine and the backend under test and counts
// what crosses the seam, so the suite can hold every implementation to
// the same accounting without asking any of them for statistics. With
// loseAt set it loses the shuffle: fetch window number loseAt (counting
// from one, in the order windows start) fails, as if the worker holding
// it had died.
type meter struct {
	mr.Backend
	shippedBytes, shipped, fetched, windows atomic.Int64
	loseAt                                  int64
}

// The meter also ends the seam's loans: every block ShipPartitions is
// lent, and the copy each visit is handed, is overwritten on return.
func (m *meter) ShipPartitions(keys []mr.PartKey, blocks [][]byte) error {
	m.shipped.Add(int64(len(keys)))
	err := m.Backend.ShipPartitions(keys, blocks)
	for _, b := range blocks {
		m.shippedBytes.Add(int64(len(b)))
		scribble(b)
	}
	return err
}

func (m *meter) FetchPartitions(keys []mr.PartKey, visit func(int, []byte) error) error {
	m.fetched.Add(int64(len(keys)))
	if w := m.windows.Add(1); w == m.loseAt {
		return fmt.Errorf("fetch window %d lost", w)
	}
	return m.Backend.FetchPartitions(keys, func(i int, data []byte) error {
		lent := bytes.Clone(data) // nil stays nil: nothing was shipped
		defer scribble(lent)
		return visit(i, lent)
	})
}

func scribble(b []byte) {
	for i := range b {
		b[i] ^= 0xff
	}
}

// install builds a backend for c, puts a meter in front of it and
// registers its teardown. It returns the meter, or nil when the suite
// runs against the in-process engine, whose shuffle crosses no seam.
func install(t *testing.T, c *mr.Cluster, newBackend Factory) *meter {
	t.Helper()
	b := newBackend(t)
	if b == nil {
		return nil
	}
	m := &meter{Backend: b}
	c.SetBackend(m)
	t.Cleanup(func() {
		if err := b.Close(); err != nil {
			t.Errorf("backend close: %v", err)
		}
	})
	return m
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
			t.Run(fmt.Sprintf("%s-%v", method, v), func(t *testing.T) {
				x := gen.Random(11, [3]int64{6, 6, 6}, 24)
				c := mr.NewCluster(mr.Config{Machines: 2, SlotsPerMachine: 2})
				install(t, c, newBackend)
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
	c := mr.NewClusterWithFS(mr.Config{Machines: 2, SlotsPerMachine: 2}, dfs.New(dfs.Options{BlockSize: 256, Replication: 3}))
	install(t, c, newBackend)
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
// scheduling nor the shuffle backend may move a single retry.
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
			dfs.New(dfs.Options{BlockSize: 256, Replication: 3}))
		if factory != nil {
			install(t, c, factory)
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
		t.Run(pc.name, func(t *testing.T) {
			baseModel, baseJobs := run(t, nil, pc.plan)
			for _, procs := range []int{1, 4, 16} {
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
		t.Run(v.String(), func(t *testing.T) {
			opt := core.Options{Variant: v, MaxIters: 3, Tol: 1e-12, Seed: 5}
			base := mr.NewCluster(mr.Config{Machines: 3, SlotsPerMachine: 2})
			c := mr.NewCluster(mr.Config{Machines: 3, SlotsPerMachine: 2})
			install(t, c, newBackend)
			want, err := core.ParafacALS(base, x, 3, opt)
			got, cerr := core.ParafacALS(c, x, 3, opt)
			if err != nil || cerr != nil {
				t.Fatal(err, cerr)
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
	c := mr.NewCluster(mr.Config{Machines: 3, SlotsPerMachine: 2})
	install(t, c, newBackend)
	want, err := core.TuckerALS(base, x, []int{2, 2, 2}, opt)
	got, cerr := core.TuckerALS(c, x, []int{2, 2, 2}, opt)
	if err != nil || cerr != nil {
		t.Fatal(err, cerr)
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

// driRun is one DRI decomposition at order 3 or 4, returning its result,
// for the cases that hold a backend's shuffle to what was charged and lent.
type driRun struct {
	name string
	run  func(c *mr.Cluster) (any, error)
}

func driRuns() []driRun {
	x3 := gen.Random(44, [3]int64{7, 6, 5}, 120)
	x4 := tensor.New(7, 6, 5, 4) // x3 with a fourth coordinate
	for p := 0; p < x3.NNZ(); p++ {
		x4.Append(x3.Value(p), append(x3.Index(p), int64(p%4))...)
	}
	x4.Coalesce()
	opt := core.Options{Variant: core.DRI, MaxIters: 2, Tol: 1e-12, Seed: 5}
	return []driRun{
		{"parafac-3", func(c *mr.Cluster) (any, error) {
			return core.ParafacALS(c, gen.Random(42, [3]int64{12, 10, 8}, 240), 3, opt)
		}},
		{"tucker-3", func(c *mr.Cluster) (any, error) {
			return core.TuckerALS(c, gen.Random(43, [3]int64{10, 9, 8}, 200), []int{2, 2, 2}, opt)
		}},
		{"parafac-4", func(c *mr.Cluster) (any, error) { return core.ParafacALS(c, x4, 2, opt) }},
		{"tucker-4", func(c *mr.Cluster) (any, error) { return core.TuckerALS(c, x4, []int{2, 2, 2, 2}, opt) }},
	}
}

// shippedEqualsCharged pins "encode once": for the DRI plans at order 3
// and 4 the bytes the backend is handed are exactly the shuffle bytes
// the jobs were charged — every partition crosses the seam as the block
// the cost model sized, and nothing else does. (DRI charges no
// ExtraShuffleBytes; the Naive plan's phantom broadcast charge is never
// materialized and so never shipped.)
func shippedEqualsCharged(t *testing.T, newBackend Factory) {
	for _, tc := range driRuns() {
		t.Run(tc.name, func(t *testing.T) {
			c := mr.NewCluster(mr.Config{Machines: 3, SlotsPerMachine: 2})
			m := install(t, c, newBackend)
			if _, err := tc.run(c); err != nil {
				t.Fatal(err)
			}
			if m == nil {
				return
			}
			if got, want := m.shippedBytes.Load(), c.Totals().ShuffleBytes; got != want || want == 0 {
				t.Fatalf("backend was shipped %d partition bytes, jobs were charged %d shuffle bytes", got, want)
			}
			if s, f := m.shipped.Load(), m.fetched.Load(); s != f {
				t.Fatalf("%d partitions shipped, %d fetched: every non-empty bucket moves once each way", s, f)
			}
		})
	}
}

// blocksLent runs the DRI plans at order 3 and 4 with every lent block
// overwritten when its loan ends (see meter): each result and the jobs'
// counters must equal the in-process engine's.
func blocksLent(t *testing.T, newBackend Factory) {
	cfg := mr.Config{Machines: 3, SlotsPerMachine: 2}
	for _, tc := range driRuns() {
		t.Run(tc.name, func(t *testing.T) {
			base, c := mr.NewCluster(cfg), mr.NewCluster(cfg)
			install(t, c, newBackend)
			want, err := tc.run(base)
			got, cerr := tc.run(c)
			if err != nil || cerr != nil {
				t.Fatal(err, cerr)
			}
			if !reflect.DeepEqual(want, got) || base.Totals() != c.Totals() {
				t.Fatal("a run with every lent block overwritten differs from the in-process engine")
			}
		})
	}
}

// wordJob counts words on c through a job with the given block codec.
// On wordCluster's five worker slots its five reducers route by modulo,
// not by power-of-two mask.
func wordJob(c *mr.Cluster, lines []string, codec *mr.BlockCodec[string, int]) ([]string, mr.JobStats, error) {
	if err := mr.WriteFile(c, "lines", lines, func(s string) int64 { return int64(len(s)) }); err != nil {
		return nil, mr.JobStats{}, err
	}
	return mr.Run(c, mr.Job[string, int, string]{
		Name: "words",
		Inputs: []mr.Input[string, int]{mr.MapInput("lines", func(line string, emit func(string, int)) {
			for _, w := range strings.Fields(line) {
				emit(w, len(w))
			}
		})},
		Reduce:    func(k string, vs []int, emit func(string)) { emit(fmt.Sprint(k, vs)) },
		Partition: func(k string) uint64 { return dfs.HashBytes([]byte(k)) },
		BlockKV:   codec,
	})
}

// wordCodec is the word job's block codec: each segment one gob stream.
var wordCodec = &mr.BlockCodec[string, int]{
	Size:   func(seg []mr.Pair[string, int]) int64 { return int64(len(appendWords(nil, seg))) },
	Append: appendWords,
	Decode: func(src []byte, dst []mr.Pair[string, int]) (seg []mr.Pair[string, int], rest []byte, err error) {
		r := bytes.NewReader(src)
		err = gob.NewDecoder(r).Decode(&seg)
		return append(dst, seg...), src[len(src)-r.Len():], err
	},
}

func appendWords(dst []byte, seg []mr.Pair[string, int]) []byte {
	b := bytes.NewBuffer(dst)
	if err := gob.NewEncoder(b).Encode(seg); err != nil {
		panic(err)
	}
	return b.Bytes()
}

func wordCluster() *mr.Cluster { return mr.NewCluster(mr.Config{Machines: 5, SlotsPerMachine: 1}) }

var wordLines = []string{"q w e r t y u i o p", "a s d f g h j k l", "z x c v b n m q w e", "a a a"}

// moduloRouting runs the word job on five reducers through the backend:
// output and counters must equal the in-process engine's, and its
// partitions must really have crossed the seam.
func moduloRouting(t *testing.T, newBackend Factory) {
	want, wantStats, err := wordJob(wordCluster(), wordLines, wordCodec)
	if err != nil {
		t.Fatal(err)
	}
	c := wordCluster()
	m := install(t, c, newBackend)
	got, gotStats, err := wordJob(c, wordLines, wordCodec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) || gotStats != wantStats {
		t.Fatalf("five-reducer job differs from in-process engine:\n got  %v %+v\n want %v %+v", got, gotStats, want, wantStats)
	}
	if m != nil && (m.shipped.Load() == 0 || m.shipped.Load() != m.fetched.Load()) {
		t.Fatalf("five-reducer job shipped %d partitions and fetched %d", m.shipped.Load(), m.fetched.Load())
	}
}

// noCodecRefused runs the word job without a block codec: on a backend
// Run refuses it with *mr.ErrNoCodec before it starts, so no counter
// moves and nothing is shipped. The in-process engine runs it.
func noCodecRefused(t *testing.T, newBackend Factory) {
	c := wordCluster()
	m := install(t, c, newBackend)
	_, _, err := wordJob(c, wordLines, nil)
	var e *mr.ErrNoCodec
	if refused := errors.As(err, &e) && e.Job == "words"; refused != (m != nil) || !refused && err != nil {
		t.Fatalf("a codec-less job with a backend (%v): %v", m != nil, err)
	}
	if m != nil && (c.Totals() != wordCluster().Totals() || m.shipped.Load() != 0) {
		t.Fatalf("the refused job moved the totals or the seam: %+v, %d shipped", c.Totals(), m.shipped.Load())
	}
}

// emptyShuffle runs a job whose map phase emits nothing: the engine
// knows every bucket is empty, so nothing is shipped and — the point —
// nothing is fetched.
func emptyShuffle(t *testing.T, newBackend Factory) {
	c := wordCluster()
	m := install(t, c, newBackend)
	out, st, err := wordJob(c, []string{"", "  ", ""}, wordCodec)
	if err != nil || len(out) != 0 || st.ShuffleRecords != 0 {
		t.Fatalf("empty job: %d outputs, %d shuffle records, err %v", len(out), st.ShuffleRecords, err)
	}
	if m != nil && (m.shipped.Load() != 0 || m.fetched.Load() != 0) {
		t.Fatalf("empty job shipped %d partitions and fetched %d, want none", m.shipped.Load(), m.fetched.Load())
	}
}

// lostShuffleResume loses one fetch window halfway through a
// checkpointed PARAFAC-DRI: the job fails with a shuffle fetch error,
// and a fresh cluster over the same DFS with a fresh backend resumes to
// the uninterrupted run's factors and λ, bit for bit, running fewer
// jobs than a full run. The in-process engine has no shuffle to lose.
func lostShuffleResume(t *testing.T, newBackend Factory) {
	x := gen.Random(42, [3]int64{12, 10, 8}, 240)
	cfg := mr.Config{Machines: 2, SlotsPerMachine: 2}
	opt := core.Options{Variant: core.DRI, MaxIters: 4, Tol: 1e-12, Seed: 5, Checkpoint: "models/parafac"}
	full, lost := mr.NewCluster(cfg), mr.NewCluster(cfg)
	count := install(t, full, newBackend)
	if count == nil {
		t.Skip("the in-process engine's shuffle never leaves the heap")
	}
	want, err := core.ParafacALS(full, x, 3, opt)
	if err != nil {
		t.Fatal(err)
	}
	install(t, lost, newBackend).loseAt = count.windows.Load()/2 + 1
	if _, err := core.ParafacALS(lost, x, 3, opt); err == nil || !strings.Contains(err.Error(), "shuffle fetch") {
		t.Fatalf("want a shuffle fetch failure, got %v", err)
	}
	resumed := mr.NewClusterWithFS(cfg, lost.FS())
	install(t, resumed, newBackend)
	got, err := core.ParafacALS(resumed, x, 3, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got.Iters != want.Iters || !modelBitsEqual(want.Model, got.Model) {
		t.Fatal("the run resumed after the lost shuffle differs from the uninterrupted run")
	}
	if n, all := resumed.Totals().Jobs, full.Totals().Jobs; n >= all {
		t.Fatalf("the resumed run ran %d jobs, a full run %d: nothing was resumed", n, all)
	}
}

// modelBitsEqual compares two Kruskal models bit-for-bit — Float64bits
// equality, stricter than ==, which would admit differing NaN payloads
// and conflate ±0.
func modelBitsEqual(a, b *tensor.Kruskal) bool {
	if len(a.Factors) != len(b.Factors) || !floatsBitsEqual(a.Lambda, b.Lambda) {
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

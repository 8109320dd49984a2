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
// equality — between the backend and the in-process engine. It also
// holds both planes of the seam to what the plans wrote: partitions are
// the shuffle bytes the jobs were charged, files are their columnar
// blocks, every job input is served by the backend, and a buffer lent to
// ShipFile is not kept.
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
	"sync"
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
	t.Run("files-mirrored", func(t *testing.T) { filesMirrored(t, newBackend) })
	t.Run("file-bytes-lent", func(t *testing.T) { fileBytesLent(t, newBackend) })
	t.Run("fallback-codec", func(t *testing.T) { fallbackCodec(t, newBackend) })
	t.Run("empty-shuffle", func(t *testing.T) { emptyShuffle(t, newBackend) })
}

// meter sits between the engine and the backend under test and counts
// what crosses the shuffle plane of the seam, so the suite can hold
// every implementation to the same accounting without asking any of
// them for statistics.
type meter struct {
	mr.Backend
	shippedBytes, shipped, fetched atomic.Int64
}

func (m *meter) ShipPartitions(keys []mr.PartKey, blocks [][]byte) error {
	for _, b := range blocks {
		m.shippedBytes.Add(int64(len(b)))
	}
	m.shipped.Add(int64(len(keys)))
	return m.Backend.ShipPartitions(keys, blocks)
}

func (m *meter) FetchPartitions(keys []mr.PartKey, visit func(int, []byte) error) error {
	m.fetched.Add(int64(len(keys)))
	return m.Backend.FetchPartitions(keys, visit)
}

// installMetered is install with a meter in front of the backend. It
// returns nil when the suite runs against the in-process engine, whose
// shuffle crosses no seam.
func installMetered(t *testing.T, c *mr.Cluster, newBackend Factory) *meter {
	t.Helper()
	var m *meter
	install(t, c, func(t *testing.T) mr.Backend {
		if b := newBackend(t); b != nil {
			m = &meter{Backend: b}
			return m
		}
		return nil
	})
	return m
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

// driRun is one DRI decomposition at order 3 or 4, for the cases that
// hold a backend's data plane to what the plans wrote and were charged.
type driRun struct {
	name  string
	order int
	run   func(c *mr.Cluster) error
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
		{"parafac-3", 3, func(c *mr.Cluster) error {
			_, err := core.ParafacALS(c, gen.Random(42, [3]int64{12, 10, 8}, 240), 3, opt)
			return err
		}},
		{"tucker-3", 3, func(c *mr.Cluster) error {
			_, err := core.TuckerALS(c, gen.Random(43, [3]int64{10, 9, 8}, 200), []int{2, 2, 2}, opt)
			return err
		}},
		{"parafac-4", 4, func(c *mr.Cluster) error { _, err := core.ParafacALS(c, x4, 2, opt); return err }},
		{"tucker-4", 4, func(c *mr.Cluster) error { _, err := core.TuckerALS(c, x4, []int{2, 2, 2, 2}, opt); return err }},
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
			m := installMetered(t, c, newBackend)
			if err := tc.run(c); err != nil {
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

// fileMeter sits in front of a backend's file plane: every file shipped
// must be exactly the block its record type's mr.FileCodec writes for
// the payload the DFS just published, and every file fetched must decode
// to whole records, which it totals.
type fileMeter struct {
	mr.Backend
	fs      *dfs.FS
	mu      sync.Mutex
	shipped map[reflect.Type]int // files shipped, per record type
	fetched int64                // records decoded from fetched files
	errs    []string
}

// codec returns the published payload of a file and its record type's
// codec.
func (m *fileMeter) codec(name string) (any, mr.FileCodec, error) {
	payload, _, err := m.fs.BlockView(name)
	if err != nil {
		return nil, nil, err
	}
	codec, ok := reflect.Zero(reflect.TypeOf(payload).Elem()).Interface().(mr.FileCodec)
	if !ok {
		return nil, nil, fmt.Errorf("%T has no file codec", payload)
	}
	return payload, codec, nil
}

func (m *fileMeter) note(name string, err error) {
	if err != nil {
		m.errs = append(m.errs, name+": "+err.Error())
	}
}

func (m *fileMeter) ShipFile(name string, data []byte) error {
	payload, codec, err := m.codec(name)
	if err == nil && !bytes.Equal(data, codec.AppendFileBlock(nil, payload)) {
		err = fmt.Errorf("shipped %d bytes that are not its %d-byte block", len(data), codec.FileBlockSize(payload))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.note(name, err); err == nil {
		m.shipped[reflect.TypeOf(payload).Elem()]++
	}
	return m.Backend.ShipFile(name, data)
}

func (m *fileMeter) FetchFile(name string) ([]byte, error) {
	data, err := m.Backend.FetchFile(name)
	if err != nil {
		return data, err
	}
	var recs any
	_, codec, cerr := m.codec(name)
	if cerr == nil {
		var rest []byte
		if recs, rest, cerr = codec.DecodeFileBlock(data); cerr == nil && len(rest) > 0 {
			cerr = fmt.Errorf("%d trailing bytes", len(rest))
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.note(name, cerr); cerr == nil {
		m.fetched += int64(reflect.ValueOf(recs).Len())
	}
	return data, nil
}

// filesMirrored pins the file plane for the DRI plans at order 3 and 4:
// every tensor, factor and 𝒯 file is shipped as exactly its block, and
// every job input is served by the backend — the records fetched total
// the records the jobs read. Outputs alone cannot show this: a silent
// fallback to the local copy keeps them bit-identical.
func filesMirrored(t *testing.T, newBackend Factory) {
	for _, tc := range driRuns() {
		t.Run(tc.name, func(t *testing.T) {
			c := mr.NewCluster(mr.Config{Machines: 3, SlotsPerMachine: 2})
			var m *fileMeter
			install(t, c, func(t *testing.T) mr.Backend {
				if b := newBackend(t); b != nil {
					m = &fileMeter{Backend: b, fs: c.FS(), shipped: make(map[reflect.Type]int)}
					return m
				}
				return nil
			})
			if err := tc.run(c); err != nil {
				t.Fatal(err)
			}
			if m == nil {
				return
			}
			if len(m.errs) > 0 {
				t.Fatalf("%d files crossed the seam as something other than their block, first %s", len(m.errs), m.errs[0])
			}
			want := []reflect.Type{reflect.TypeFor[core.Entry](), reflect.TypeFor[core.MatEntry](), reflect.TypeFor[core.HEntry]()}
			if tc.order == 4 {
				want[0], want[2] = reflect.TypeFor[core.EntryOf[[4]int64]](), reflect.TypeFor[core.HEntryOf[[4]int64]]()
			}
			for _, rt := range want {
				if m.shipped[rt] == 0 || len(m.shipped) != len(want) {
					t.Fatalf("files shipped per record type %v, want tensor, factor and 𝒯 files (%v)", m.shipped, want)
				}
			}
			if in := c.Totals().InputRecords; m.fetched != in {
				t.Fatalf("the backend served %d of the %d records jobs read: the rest fell back to the local copy", m.fetched, in)
			}
		})
	}
}

// scribbler overwrites every buffer ShipFile is lent as soon as the
// backend's call returns, and checks each fetch against a copy of what
// was shipped.
type scribbler struct {
	mr.Backend
	mu      sync.Mutex
	shipped map[string][]byte
	fetches int
	errs    []string
}

func (s *scribbler) ShipFile(name string, data []byte) error {
	err := s.Backend.ShipFile(name, data)
	s.mu.Lock()
	s.shipped[name] = bytes.Clone(data)
	s.mu.Unlock()
	for i := range data {
		data[i] ^= 0xff
	}
	return err
}

func (s *scribbler) FetchFile(name string) ([]byte, error) {
	data, err := s.Backend.FetchFile(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fetches++; err == nil && !bytes.Equal(data, s.shipped[name]) {
		s.errs = append(s.errs, name)
	}
	return data, err
}

// fileBytesLent pins ShipFile's contract: data is lent for the call
// only, and the engine reuses it on return. With every lent buffer
// overwritten the moment ShipFile returns, each fetch must still return
// the bytes shipped, and PARAFAC-DRI must still equal the in-process
// engine bit for bit.
func fileBytesLent(t *testing.T, newBackend Factory) {
	x := gen.Random(42, [3]int64{12, 10, 8}, 240)
	cfg := mr.Config{Machines: 3, SlotsPerMachine: 2}
	opt := core.Options{Variant: core.DRI, MaxIters: 2, Tol: 1e-12, Seed: 5}
	want, err := core.ParafacALS(mr.NewCluster(cfg), x, 3, opt)
	if err != nil {
		t.Fatal(err)
	}
	c := mr.NewCluster(cfg)
	var s *scribbler
	install(t, c, func(t *testing.T) mr.Backend {
		if b := newBackend(t); b != nil {
			s = &scribbler{Backend: b, shipped: make(map[string][]byte)}
			return s
		}
		return nil
	})
	got, err := core.ParafacALS(c, x, 3, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !modelBitsEqual(want.Model, got.Model) {
		t.Fatal("factor bytes differ from in-process engine")
	}
	if s == nil {
		return
	}
	if s.fetches == 0 {
		t.Fatal("no file was fetched from the backend")
	}
	if len(s.errs) > 0 {
		t.Fatalf("%d of %d fetches returned other bytes than were shipped, first %s: the backend kept a lent buffer",
			len(s.errs), s.fetches, s.errs[0])
	}
}

// wordJob is a job without a block codec: its partitions cross the seam
// through the wire-codec fallback.
func wordJob(lines []string) func(c *mr.Cluster) ([]string, mr.JobStats, error) {
	return func(c *mr.Cluster) ([]string, mr.JobStats, error) {
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
			Reduce: func(k string, vs []int, emit func(string)) { emit(fmt.Sprint(k, vs)) },
			Partition: func(k string) uint64 {
				return dfs.HashBytes([]byte(k))
			},
			Reducers: 5,
		})
	}
}

// fallbackCodec runs a job with no BlockKV through the backend: output
// and counters must equal the in-process engine's, and its partitions
// must really have crossed the seam.
func fallbackCodec(t *testing.T, newBackend Factory) {
	job := wordJob([]string{"q w e r t y u i o p", "a s d f g h j k l", "z x c v b n m q w e", "a a a"})
	want, wantStats, err := job(mr.NewCluster(mr.Config{Machines: 2, SlotsPerMachine: 2}))
	if err != nil {
		t.Fatal(err)
	}
	c := mr.NewCluster(mr.Config{Machines: 2, SlotsPerMachine: 2})
	m := installMetered(t, c, newBackend)
	got, gotStats, err := job(c)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) || gotStats != wantStats {
		t.Fatalf("fallback job differs from in-process engine:\n got  %v %+v\n want %v %+v", got, gotStats, want, wantStats)
	}
	if m != nil && (m.shipped.Load() == 0 || m.shipped.Load() != m.fetched.Load()) {
		t.Fatalf("fallback job shipped %d partitions and fetched %d", m.shipped.Load(), m.fetched.Load())
	}
}

// emptyShuffle runs a job whose map phase emits nothing: the engine
// knows every bucket is empty, so nothing is shipped and — the point —
// nothing is fetched.
func emptyShuffle(t *testing.T, newBackend Factory) {
	c := mr.NewCluster(mr.Config{Machines: 2, SlotsPerMachine: 2})
	m := installMetered(t, c, newBackend)
	out, st, err := wordJob([]string{"", "  ", ""})(c)
	if err != nil || len(out) != 0 || st.ShuffleRecords != 0 {
		t.Fatalf("empty job: %d outputs, %d shuffle records, err %v", len(out), st.ShuffleRecords, err)
	}
	if m != nil && (m.shipped.Load() != 0 || m.fetched.Load() != 0) {
		t.Fatalf("empty job shipped %d partitions and fetched %d, want none", m.shipped.Load(), m.fetched.Load())
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

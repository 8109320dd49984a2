package mr

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"github.com/haten2/haten2/internal/obs"
)

// TestExhaustionStatsDeterministic pins the deterministic
// resource-limit accounting: when MaxShuffleRecords trips, the recorded
// ShuffleRecords/ShuffleBytes must be the in-order prefix through the
// tripping map task — identical run-to-run and across GOMAXPROCS
// settings, even though tasks complete in scheduler order.
func TestExhaustionStatsDeterministic(t *testing.T) {
	run := func(procs int) (int64, int64) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		// 8 workers → 8 map tasks of 8 records each; every record fans
		// out ×20, so tasks contribute 160 records apiece and the
		// prefix 160, 320, 480, 640 crosses the 500-record limit at
		// task index 3.
		c := NewCluster(Config{Machines: 4, SlotsPerMachine: 2, MaxShuffleRecords: 500})
		items := make([]int64, 64)
		for i := range items {
			items[i] = int64(i)
		}
		if err := WriteFile(c, "in", items, func(int64) int64 { return 8 }); err != nil {
			t.Fatal(err)
		}
		_, st, err := Run(c, Job[int64, int64, int64]{
			Name: "explode",
			Inputs: []Input[int64, int64]{MapInput("in", func(r int64, emit func(int64, int64)) {
				for i := int64(0); i < 20; i++ {
					emit(r*20+i, 1)
				}
			})},
			Reduce:    func(k int64, vs []int64, emit func(int64)) { emit(k) },
			Partition: HashInt64,
		})
		var re *ErrResourceExhausted
		if !errors.As(err, &re) {
			t.Fatalf("want ErrResourceExhausted, got %v", err)
		}
		return st.ShuffleRecords, st.ShuffleBytes
	}
	wantRecords, wantBytes := run(1)
	if wantRecords != 640 {
		t.Fatalf("prefix through the tripping task should count 4 tasks x 160 records, got %d", wantRecords)
	}
	for _, procs := range []int{1, 2, 4, 8} {
		for rep := 0; rep < 5; rep++ {
			gotRecords, gotBytes := run(procs)
			if gotRecords != wantRecords || gotBytes != wantBytes {
				t.Fatalf("GOMAXPROCS=%d rep %d: stats %d/%d differ from %d/%d",
					procs, rep, gotRecords, gotBytes, wantRecords, wantBytes)
			}
		}
	}
}

// TestExhaustionByPhantomChargeOnly covers the corner where
// ExtraShuffleRecords alone exceeds the limit: no map task output is
// counted, so the recorded shuffle is exactly the phantom charge.
func TestExhaustionByPhantomChargeOnly(t *testing.T) {
	c := NewCluster(Config{Machines: 2, MaxShuffleRecords: 50})
	WriteFile(c, "in", []int64{1, 2}, func(int64) int64 { return 8 })
	_, st, err := Run(c, Job[int64, int64, int64]{
		Name:                "phantom-only",
		Inputs:              []Input[int64, int64]{MapInput("in", func(r int64, emit func(int64, int64)) { emit(0, 1) })},
		Reduce:              func(k int64, vs []int64, emit func(int64)) { emit(k) },
		Partition:           HashInt64,
		ExtraShuffleRecords: 200,
		ExtraShuffleBytes:   1600,
	})
	var re *ErrResourceExhausted
	if !errors.As(err, &re) {
		t.Fatalf("want ErrResourceExhausted, got %v", err)
	}
	if st.ShuffleRecords != 200 || st.ShuffleBytes != 1600 {
		t.Fatalf("phantom-only exhaustion should count just the charge: %+v", st)
	}
}

// TestConcurrentRunsAndSnapshots exercises ResetCounters, Jobs, and
// Totals while jobs run concurrently (run under -race in CI). Jobs must
// return an isolated copy, and the final log must reflect exactly the
// jobs recorded after the last reset.
func TestConcurrentRunsAndSnapshots(t *testing.T) {
	c := testCluster(2)
	WriteFile(c, "in", []int64{1, 2, 3, 4}, func(int64) int64 { return 8 })
	job := func(name string) Job[int64, int64, int64] {
		return Job[int64, int64, int64]{
			Name:   name,
			Inputs: []Input[int64, int64]{MapInput("in", func(r int64, emit func(int64, int64)) { emit(r, 1) })},
			Reduce: func(k int64, vs []int64, emit func(int64)) {
				var s int64
				for _, v := range vs {
					s += v
				}
				emit(s)
			},
			Partition: HashInt64,
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if _, _, err := Run(c, job("concurrent")); err != nil {
					t.Error(err)
					return
				}
				// Snapshots taken mid-flight must be internally
				// consistent and safe to mutate.
				jobs := c.Jobs()
				for _, j := range jobs {
					if j.Name != "concurrent" {
						t.Errorf("foreign job in log: %q", j.Name)
						return
					}
				}
				if len(jobs) > 0 {
					jobs[0].Name = "mutated"
					if got := c.Jobs(); len(got) > 0 && got[0].Name == "mutated" {
						t.Error("Jobs() returned an aliased slice")
						return
					}
				}
				_ = c.Totals()
				if i == 3 {
					c.ResetCounters()
				}
			}
		}()
	}
	wg.Wait()
	// Quiesced: the job log and totals must agree with each other.
	jobs := c.Jobs()
	tot := c.Totals()
	if len(jobs) != tot.Jobs {
		t.Fatalf("job log has %d entries, totals say %d", len(jobs), tot.Jobs)
	}
	c.ResetCounters()
	if len(c.Jobs()) != 0 || c.Totals().Jobs != 0 {
		t.Fatal("reset did not clear counters")
	}
	// The engine still works after resets.
	if _, st, err := Run(c, job("concurrent")); err != nil || st.OutputRecords != 4 {
		t.Fatalf("post-reset run: st=%+v err=%v", st, err)
	}
}

// TestFaultDeterminismAcrossProcs runs the same seeded FaultPlan at
// GOMAXPROCS ∈ {1, 4, 16} and asserts the whole observable surface is
// bit-identical: outputs, the per-job stats log in order (including
// every retry/speculation/waste counter and the float-valued penalty),
// and the cluster totals. Fault decisions are pure hashes applied in a
// sequential post-pass, so scheduling must never leak in.
func TestFaultDeterminismAcrossProcs(t *testing.T) {
	type snapshot struct {
		out    []int64
		jobs   []JobStats
		totals Totals
	}
	run := func(procs int) snapshot {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		// Near-zero SpeculativeDelay so the test's sub-second tasks can
		// trigger speculative backups at all.
		cost := DefaultCostModel()
		cost.SpeculativeDelay = 1e-9
		c := NewCluster(Config{Machines: 8, SlotsPerMachine: 2, Cost: cost})
		items := make([]int64, 128)
		for i := range items {
			items[i] = int64(i)
		}
		if err := WriteFile(c, "in", items, func(int64) int64 { return 8 }); err != nil {
			t.Fatal(err)
		}
		c.InstallFaultPlan(&FaultPlan{
			Seed:          42,
			FailureRate:   0.25,
			StragglerRate: 0.15,
			MaxAttempts:   32,
		})
		job := Job[int64, int64, int64]{
			Name: "fault-sweep",
			Inputs: []Input[int64, int64]{MapInput("in", func(x int64, emit func(int64, int64)) {
				for i := int64(0); i < 3; i++ {
					emit((x*7+i)%64, x+i)
				}
			})},
			Reduce: func(k int64, vs []int64, emit func(int64)) {
				var s int64
				for _, v := range vs {
					s += v
				}
				emit(k<<20 ^ s)
			},
			Partition: HashInt64,
		}
		var out []int64
		for rep := 0; rep < 3; rep++ { // several jobs → several jobSeq values
			o, _, err := Run(c, job)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, o...)
		}
		return snapshot{out: out, jobs: c.Jobs(), totals: c.Totals()}
	}
	want := run(1)
	if want.totals.TaskRetries == 0 || want.totals.SpeculativeTasks == 0 {
		t.Fatalf("plan injected nothing to check: %+v", want.totals)
	}
	for _, procs := range []int{1, 4, 16} {
		for rep := 0; rep < 3; rep++ {
			got := run(procs)
			if !reflect.DeepEqual(got.out, want.out) {
				t.Fatalf("GOMAXPROCS=%d rep %d: outputs differ", procs, rep)
			}
			if !reflect.DeepEqual(got.jobs, want.jobs) {
				t.Fatalf("GOMAXPROCS=%d rep %d: job stats differ:\n%+v\nvs\n%+v",
					procs, rep, got.jobs, want.jobs)
			}
			if got.totals != want.totals {
				t.Fatalf("GOMAXPROCS=%d rep %d: totals differ:\n%+v\nvs\n%+v",
					procs, rep, got.totals, want.totals)
			}
		}
	}
}

// TestTraceBytesDeterministicAcrossProcs runs the same faulty job
// chain with a tracer attached at GOMAXPROCS ∈ {1, 4, 16} and requires
// the exported Chrome trace to be byte-identical — span order, integer
// microsecond timestamps, phase durations, and every recovery counter.
// This is the engine-level half of the golden-trace guarantee (the
// ALS-level half lives in internal/obs).
func TestTraceBytesDeterministicAcrossProcs(t *testing.T) {
	run := func(procs int) []byte {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		cost := DefaultCostModel()
		cost.SpeculativeDelay = 1e-9
		c := NewCluster(Config{Machines: 8, SlotsPerMachine: 2, Cost: cost})
		tr := obs.NewTracer()
		c.SetTracer(tr)
		items := make([]int64, 96)
		for i := range items {
			items[i] = int64(i)
		}
		if err := WriteFile(c, "in", items, func(int64) int64 { return 8 }); err != nil {
			t.Fatal(err)
		}
		c.InstallFaultPlan(&FaultPlan{Seed: 7, FailureRate: 0.2, StragglerRate: 0.1, MaxAttempts: 32})
		job := Job[int64, int64, int64]{
			Name: "traced",
			Inputs: []Input[int64, int64]{MapInput("in", func(r int64, emit func(int64, int64)) {
				emit(r%32, 1)
			})},
			Reduce: func(k int64, vs []int64, emit func(int64)) {
				var s int64
				for _, v := range vs {
					s += v
				}
				emit(s)
			},
			Partition: HashInt64,
		}
		for rep := 0; rep < 3; rep++ {
			if _, _, err := Run(c, job); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := tr.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want := run(1)
	if !bytes.Contains(want, []byte(`"recover"`)) {
		t.Fatal("plan injected no recovery phases; the test would not cover them")
	}
	for _, procs := range []int{1, 4, 16} {
		for rep := 0; rep < 3; rep++ {
			if got := run(procs); !bytes.Equal(got, want) {
				t.Fatalf("GOMAXPROCS=%d rep %d: trace bytes differ (%d vs %d bytes)",
					procs, rep, len(got), len(want))
			}
		}
	}
}

// TestHintsPresizeSecondRun re-runs the same-named job and checks the
// results are identical — the hint path must be invisible apart from
// buffer capacities.
func TestHintsPresizeSecondRun(t *testing.T) {
	c := testCluster(2)
	lines := []string{"a b c d", "b c d e", "c d e f", "g h", "a a a a a"}
	first := runWordCount(t, c, lines)
	if err := c.FS().Delete("lines"); err != nil {
		t.Fatal(err)
	}
	second := runWordCount(t, c, lines)
	if len(first) != len(second) {
		t.Fatalf("hinted rerun changed results: %v vs %v", first, second)
	}
	for k, v := range first {
		if second[k] != v {
			t.Fatalf("hinted rerun changed count[%q]: %d vs %d", k, v, second[k])
		}
	}
}

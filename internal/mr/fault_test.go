package mr

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// sumJob is a small deterministic job used throughout the fault tests:
// it fans each input record out to a handful of keys and sums per key.
func sumJob(name string) Job[int64, int64, int64] {
	return Job[int64, int64, int64]{
		Name: name,
		Inputs: []Input[int64, int64]{MapInput("in", func(x int64, emit func(int64, int64)) {
			for i := int64(0); i < 4; i++ {
				emit((x+i)%16, x)
			}
		})},
		Reduce: func(k int64, vs []int64, emit func(int64)) {
			var s int64
			for _, v := range vs {
				s += v
			}
			emit(k<<32 | s&0xffffffff)
		},
		Partition: HashInt64,
	}
}

func writeFaultInput(t *testing.T, c *Cluster) {
	t.Helper()
	items := make([]int64, 64)
	for i := range items {
		items[i] = int64(i)
	}
	if err := WriteFile(c, "in", items, func(int64) int64 { return 8 }); err != nil {
		t.Fatal(err)
	}
}

// TestFaultsNeverChangeOutputs pins the subsystem's standing invariant:
// a run under a heavy fault plan produces bit-identical outputs to the
// fault-free run — only simulated time and the recovery counters move.
func TestFaultsNeverChangeOutputs(t *testing.T) {
	c := testCluster(4)
	writeFaultInput(t, c)
	clean, cleanSt, err := Run(c, sumJob("clean"))
	if err != nil {
		t.Fatal(err)
	}

	c2 := testCluster(4)
	writeFaultInput(t, c2)
	c2.InstallFaultPlan(&FaultPlan{
		Seed:          7,
		FailureRate:   0.3,
		StragglerRate: 0.2,
		MaxAttempts:   20, // generous: the job must survive to compare outputs
	})
	faulty, faultySt, err := Run(c2, sumJob("faulty"))
	if err != nil {
		t.Fatal(err)
	}

	if len(clean) != len(faulty) {
		t.Fatalf("fault plan changed output length: %d vs %d", len(clean), len(faulty))
	}
	for i := range clean {
		if clean[i] != faulty[i] {
			t.Fatalf("fault plan changed output[%d]: %d vs %d", i, clean[i], faulty[i])
		}
	}
	if faultySt.TaskRetries == 0 {
		t.Fatal("30% failure rate injected no retries")
	}
	if faultySt.WastedRecords == 0 || faultySt.WastedBytes == 0 {
		t.Fatalf("retries charged no waste: %+v", faultySt)
	}
	if faultySt.PenaltySeconds <= 0 {
		t.Fatalf("retries charged no penalty: %+v", faultySt)
	}
	if faultySt.SimSeconds <= cleanSt.SimSeconds {
		t.Fatalf("faulty run not slower: %v vs %v", faultySt.SimSeconds, cleanSt.SimSeconds)
	}
	if faultySt.MapAttempts+faultySt.ReduceAttempts <= faultySt.MapTasks+faultySt.ReduceTasks {
		t.Fatalf("attempts %d+%d should exceed tasks %d+%d under failures",
			faultySt.MapAttempts, faultySt.ReduceAttempts, faultySt.MapTasks, faultySt.ReduceTasks)
	}
	// Fault-free stats carry the degenerate attempt counts.
	if cleanSt.MapAttempts != cleanSt.MapTasks || cleanSt.ReduceAttempts != cleanSt.ReduceTasks {
		t.Fatalf("fault-free attempts should equal tasks: %+v", cleanSt)
	}
	// The recovery counters roll up into Totals.
	tot := c2.Totals()
	if tot.TaskRetries != faultySt.TaskRetries || tot.WastedRecords != faultySt.WastedRecords ||
		tot.PenaltySeconds != faultySt.PenaltySeconds {
		t.Fatalf("totals disagree with job stats: %+v vs %+v", tot, faultySt)
	}
}

// TestJobFailsAfterMaxAttempts drives the failure rate to 1 so the first
// task exhausts its budget, and checks the terminal *ErrJobFailed plus
// the accounting of every doomed attempt.
func TestJobFailsAfterMaxAttempts(t *testing.T) {
	c := testCluster(4)
	writeFaultInput(t, c)
	c.InstallFaultPlan(&FaultPlan{Seed: 1, FailureRate: 1.0, MaxAttempts: 3})
	out, st, err := Run(c, sumJob("doomed"))
	var jf *ErrJobFailed
	if !errors.As(err, &jf) {
		t.Fatalf("want ErrJobFailed, got %v", err)
	}
	if out != nil {
		t.Fatal("failed job returned outputs")
	}
	if jf.Job != "doomed" || jf.Phase != "map" || jf.Task != 0 || jf.Attempts != 3 {
		t.Fatalf("ErrJobFailed fields: %+v", jf)
	}
	if st.TaskRetries != 3 || st.MapAttempts != 3 {
		t.Fatalf("task 0 should burn exactly MaxAttempts: %+v", st)
	}
	if st.PenaltySeconds <= 0 {
		t.Fatalf("doomed attempts charged no penalty: %+v", st)
	}
	// The failed job is still recorded on the cluster.
	if tot := c.Totals(); tot.Jobs != 1 || tot.TaskRetries != 3 {
		t.Fatalf("failed job not recorded: %+v", tot)
	}
	// Exponential backoff: with MaxAttempts 4 the same task accrues a
	// strictly larger penalty per attempt (backoff doubles).
	c2 := testCluster(4)
	writeFaultInput(t, c2)
	c2.InstallFaultPlan(&FaultPlan{Seed: 1, FailureRate: 1.0, MaxAttempts: 4})
	_, st4, err := Run(c2, sumJob("doomed"))
	if !errors.As(err, &jf) {
		t.Fatalf("want ErrJobFailed, got %v", err)
	}
	base := c.cfg.Cost.RetryBackoff
	// Attempts 1..3 wait 1+2+4 backoffs, attempts 1..4 wait 1+2+4+8.
	if st4.PenaltySeconds-st.PenaltySeconds < 8*base-1e-9 {
		t.Fatalf("backoff not exponential: 3 attempts %.1fs, 4 attempts %.1fs",
			st.PenaltySeconds, st4.PenaltySeconds)
	}
}

// TestSpeculativeExecution checks the straggler model: with speculation
// on, backups launch, some win, and the straggler lag is capped by the
// backup's finish time; with speculation off the full slowdown is paid.
func TestSpeculativeExecution(t *testing.T) {
	// A near-zero SpeculativeDelay means every straggler lags long enough
	// to be flagged, so backups launch even for the test's tiny tasks.
	// (With the default 30s delay the tasks here finish long before the
	// scheduler would notice them — correctly spawning no backups.)
	cost := DefaultCostModel()
	cost.SpeculativeDelay = 1e-9
	cfg := Config{Machines: 4, SlotsPerMachine: 2, Cost: cost}
	plan := FaultPlan{Seed: 3, StragglerRate: 1.0}

	c := NewCluster(cfg)
	writeFaultInput(t, c)
	c.InstallFaultPlan(&plan)
	out, st, err := Run(c, sumJob("straggle"))
	if err != nil {
		t.Fatal(err)
	}
	if st.SpeculativeTasks == 0 || st.SpeculativeWins == 0 {
		t.Fatalf("no speculation under StragglerRate=1: %+v", st)
	}
	if st.WastedRecords == 0 {
		t.Fatalf("losing attempts charged no waste: %+v", st)
	}

	// Same plan, speculation disabled: identical outputs, no backups,
	// strictly larger penalty (the stragglers run to completion).
	c2 := NewCluster(cfg)
	writeFaultInput(t, c2)
	noSpec := plan
	noSpec.DisableSpeculation = true
	c2.InstallFaultPlan(&noSpec)
	out2, st2, err := Run(c2, sumJob("straggle"))
	if err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if out[i] != out2[i] {
			t.Fatal("speculation setting changed outputs")
		}
	}
	if st2.SpeculativeTasks != 0 {
		t.Fatalf("DisableSpeculation launched backups: %+v", st2)
	}
	if st2.PenaltySeconds <= st.PenaltySeconds {
		t.Fatalf("unrescued stragglers should cost more: %v vs %v",
			st2.PenaltySeconds, st.PenaltySeconds)
	}
}

// TestMachineBlacklisting runs a high-failure plan on a small cluster
// and checks that machines get blacklisted but at least one survives
// (the engine never blacklists the last alive machine).
func TestMachineBlacklisting(t *testing.T) {
	c := testCluster(2) // 2 machines
	writeFaultInput(t, c)
	c.InstallFaultPlan(&FaultPlan{
		Seed:           11,
		FailureRate:    0.8,
		MaxAttempts:    64, // survive long streaks: the job must complete
		BlacklistAfter: 3,
	})
	_, st, err := Run(c, sumJob("blacklist"))
	if err != nil {
		t.Fatal(err)
	}
	if st.BlacklistedMachines == 0 {
		t.Fatalf("80%% failures on 2 machines blacklisted nothing: %+v", st)
	}
	if st.BlacklistedMachines >= c.Machines() {
		t.Fatalf("blacklisted all %d machines: %+v", c.Machines(), st)
	}
}

// TestKillAfterJobsAndRestart models the JobTracker crash: jobs run
// until the kill budget is spent, later submissions get *ErrClusterKilled,
// the DFS survives, and a new cluster on the same FS resumes work.
func TestKillAfterJobsAndRestart(t *testing.T) {
	c := testCluster(2)
	writeFaultInput(t, c)
	c.InstallFaultPlan(&FaultPlan{Seed: 5, KillAfterJobs: 2})
	if _, _, err := Run(c, sumJob("j0")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Run(c, sumJob("j1")); err != nil {
		t.Fatal(err)
	}
	_, _, err := Run(c, sumJob("j2"))
	var ck *ErrClusterKilled
	if !errors.As(err, &ck) {
		t.Fatalf("want ErrClusterKilled, got %v", err)
	}
	if ck.Job != "j2" || ck.AfterJobs != 2 {
		t.Fatalf("ErrClusterKilled fields: %+v", ck)
	}
	// Dead stays dead.
	if _, _, err := Run(c, sumJob("j3")); !errors.As(err, &ck) {
		t.Fatalf("killed cluster ran another job: %v", err)
	}
	// HDFS survives the JobTracker: the data is readable and a new
	// cluster on the same FS picks the work back up.
	if !c.FS().Exists("in") {
		t.Fatal("cluster kill destroyed the DFS")
	}
	c2 := NewClusterWithFS(Config{Machines: 2, SlotsPerMachine: 2}, c.FS())
	if _, _, err := Run(c2, sumJob("resumed")); err != nil {
		t.Fatalf("restarted cluster cannot run: %v", err)
	}
	// InstallFaultPlan(nil) also revives a killed cluster.
	c.InstallFaultPlan(nil)
	if _, _, err := Run(c, sumJob("revived")); err != nil {
		t.Fatalf("clearing the plan did not revive the cluster: %v", err)
	}
}

// TestRunJoinsGoroutines pins that Run joins its map and reduce worker
// pools on every way out — a succeeding job, an *ErrResourceExhausted
// job and a fault-plan failure — so the goroutine count is back at the
// warmed-up baseline within a short deadline of Run returning. Record 0
// sleeps for four deadlines, so a pool Run failed to join is still
// running when the deadline expires.
func TestRunJoinsGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4)) // a pool of 4, not the serial path
	const deadline, nap = 25 * time.Millisecond, 100 * time.Millisecond
	slowJob := func(name string) Job[int64, int64, int64] {
		j := sumJob(name)
		j.Inputs = []Input[int64, int64]{MapInput("in", func(x int64, emit func(int64, int64)) {
			if x == 0 {
				time.Sleep(nap)
			}
			emit(x%16, x)
		})}
		return j
	}
	cfg := Config{Machines: 4, SlotsPerMachine: 2}
	tight := cfg
	tight.MaxShuffleRecords = 10 // task 0's 8 records run; task 1 trips
	cases := []struct {
		name string
		cfg  Config
		plan *FaultPlan
		want func(err error) bool
	}{
		{"ok", cfg, nil, func(err error) bool { return err == nil }},
		{"exhausted", tight, nil, func(err error) bool {
			var re *ErrResourceExhausted
			return errors.As(err, &re)
		}},
		{"failed", cfg, &FaultPlan{Seed: 1, FailureRate: 1.0, MaxAttempts: 3}, func(err error) bool {
			var jf *ErrJobFailed
			return errors.As(err, &jf)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cycle := func() {
				c := NewCluster(tc.cfg)
				writeFaultInput(t, c)
				c.InstallFaultPlan(tc.plan)
				if _, _, err := Run(c, slowJob(tc.name)); !tc.want(err) {
					t.Fatalf("unexpected Run error: %v", err)
				}
			}
			cycle() // warm up lazy runtime machinery before taking the baseline
			// Outsleep record 0 so that a pool the warm-up failed to
			// join has exited and is not counted in the baseline.
			time.Sleep(2 * nap)
			before := runtime.NumGoroutine()
			for i := 0; i < 8; i++ {
				cycle()
				end := time.Now().Add(deadline)
				for runtime.NumGoroutine() > before {
					if time.Now().After(end) {
						buf := make([]byte, 1<<20)
						t.Fatalf("cycle %d: goroutines leaked: %d -> %d\n%s",
							i, before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
					}
					time.Sleep(time.Millisecond)
				}
			}
		})
	}
}

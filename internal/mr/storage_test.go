package mr

import (
	"errors"
	"testing"

	"github.com/haten2/haten2/internal/dfs"
)

// runStorageChain runs a deterministic two-job chain on a cluster whose
// DFS uses small blocks (so files span several), returning the final
// outputs. Errors (data loss under aggressive plans) are returned, not
// fatal, so seed searches can skip doomed seeds.
func runStorageChain(c *Cluster) ([]int64, error) {
	vals := make([]int64, 64)
	for i := range vals {
		vals[i] = int64(i * 3)
	}
	WriteFile(c, "chain/in", vals, func(int64) int64 { return 16 })
	_, _, err := Run(c, Job[int64, int64, int64]{
		Name:   "chain-1",
		Inputs: []Input[int64, int64]{MapInput("chain/in", func(v int64, emit func(int64, int64)) { emit(v%7, v) })},
		Reduce: func(k int64, vs []int64, emit func(int64)) {
			var s int64
			for _, v := range vs {
				s += v
			}
			emit(k*1000 + s)
		},
		Partition: HashInt64,
		Outputs:   []string{"chain/mid"},
	})
	if err != nil {
		return nil, err
	}
	out2, _, err := Run(c, Job[int64, int64, int64]{
		Name:   "chain-2",
		Inputs: []Input[int64, int64]{MapInput("chain/mid", func(v int64, emit func(int64, int64)) { emit(v%5, v) })},
		Reduce: func(k int64, vs []int64, emit func(int64)) {
			var s int64
			for _, v := range vs {
				s += v
			}
			emit(s)
		},
		Partition: HashInt64,
	})
	if err != nil {
		return nil, err
	}
	res := make([]int64, len(out2))
	copy(res, out2)
	Recycle(out2)
	return res, nil
}

func storageCluster(repl int) *Cluster {
	return NewClusterWithFS(Config{Machines: 4},
		dfs.New(dfs.Options{BlockSize: 128, Replication: repl, Machines: 4}))
}

// TestStorageFaultsMoveTimeAndCountersNotOutputs is the headline
// invariant at the engine level: a seeded corruption/loss plan changes
// JobStats counters and SimSeconds, never the bytes a job chain
// produces.
func TestStorageFaultsMoveTimeAndCountersNotOutputs(t *testing.T) {
	clean, err := runStorageChain(storageCluster(3))
	if err != nil {
		t.Fatal(err)
	}

	plan := func(s int64) *FaultPlan {
		return &FaultPlan{Seed: s, BlockCorruptRate: 0.25, ReplicaLossRate: 0.15}
	}
	var seed int64 = -1
	for s := int64(0); s < 200; s++ {
		c := storageCluster(3)
		c.InstallFaultPlan(plan(s))
		got, err := runStorageChain(c)
		if err != nil {
			var dl *dfs.ErrDataLoss
			if !errors.As(err, &dl) {
				t.Fatalf("seed %d: unexpected error class: %v", s, err)
			}
			continue
		}
		tot := c.Totals()
		if tot.CorruptBlocks == 0 || tot.LostReplicas == 0 {
			continue
		}
		if len(got) != len(clean) {
			t.Fatalf("seed %d: storage faults changed output count", s)
		}
		for i := range clean {
			if got[i] != clean[i] {
				t.Fatalf("seed %d: storage faults changed output %d: %d vs %d", s, i, got[i], clean[i])
			}
		}
		seed = s
		break
	}
	if seed < 0 {
		t.Fatal("no seed under 200 survived with both corruption and loss detected")
	}

	c := storageCluster(3)
	c.InstallFaultPlan(plan(seed))
	if _, err := runStorageChain(c); err != nil {
		t.Fatal(err)
	}
	tot := c.Totals()
	if tot.FailoverReads == 0 || tot.FailoverBytes == 0 {
		t.Fatalf("corruption detected but no failover charged: %+v", tot)
	}
	if tot.ReReplications != tot.CorruptBlocks+tot.LostReplicas {
		t.Fatalf("read-repair did not restore every bad copy: %+v", tot)
	}
	if tot.StorageSeconds <= 0 {
		t.Fatalf("storage faults charged no simulated time: %+v", tot)
	}
	cc := storageCluster(3)
	if _, err := runStorageChain(cc); err != nil {
		t.Fatal(err)
	}
	if cleanTot := cc.Totals(); tot.SimSeconds <= cleanTot.SimSeconds {
		t.Fatalf("faulty run not slower: %.3f vs %.3f", tot.SimSeconds, cleanTot.SimSeconds)
	}
	// The job-level deltas must tile the FS-level counters exactly.
	fst := c.FS().Stats()
	if tot.CorruptBlocks != fst.CorruptBlocks || tot.ScrubBytes != fst.ScrubBytes ||
		tot.FailoverBytes != fst.FailoverBytes || tot.LostReplicas != fst.LostReplicas {
		t.Fatalf("job deltas disagree with dfs.Stats: %+v vs %+v", tot, fst)
	}
}

// TestStorageCountersDeterministic pins that two identical faulty runs
// produce identical totals — the storage decisions are pure hashes,
// independent of scheduling.
func TestStorageCountersDeterministic(t *testing.T) {
	run := func() Totals {
		c := storageCluster(2)
		c.InstallFaultPlan(&FaultPlan{Seed: 11, BlockCorruptRate: 0.1, ReplicaLossRate: 0.1})
		if _, err := runStorageChain(c); err != nil {
			var dl *dfs.ErrDataLoss
			if !errors.As(err, &dl) {
				t.Fatalf("unexpected error class: %v", err)
			}
		}
		return c.Totals()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("storage totals not deterministic:\n%+v\n%+v", a, b)
	}
}

// TestStorageReplicationFactorInvariant runs the same chain at
// replication 1, 2, and 3 with no faults: outputs must be identical —
// replication buys durability, not different answers — while the
// physical write amplification scales with the factor.
func TestStorageReplicationFactorInvariant(t *testing.T) {
	r1 := storageCluster(1)
	base, err := runStorageChain(r1)
	if err != nil {
		t.Fatal(err)
	}
	var s3 dfs.Stats
	for _, repl := range []int{2, 3} {
		c := storageCluster(repl)
		got, err := runStorageChain(c)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(base) {
			t.Fatalf("replication %d changed output count: %d vs %d", repl, len(got), len(base))
		}
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("replication %d changed output %d", repl, i)
			}
		}
		if repl == 3 {
			s3 = c.FS().Stats()
		}
	}
	s1 := r1.FS().Stats()
	if s3.BytesReplWrite != 3*s1.BytesReplWrite {
		t.Fatalf("replication 3 wrote %d physical bytes, want 3x %d", s3.BytesReplWrite, s1.BytesReplWrite)
	}
	if s1.BytesWritten != s3.BytesWritten {
		t.Fatalf("logical bytes differ across replication: %d vs %d", s1.BytesWritten, s3.BytesWritten)
	}
}

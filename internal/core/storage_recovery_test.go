package core

import (
	"errors"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"github.com/haten2/haten2/internal/dfs"
	"github.com/haten2/haten2/internal/mr"
)

// storageTestCluster builds a cluster whose DFS uses tiny blocks and
// the given replication factor, so even small decomposition inputs
// span many blocks and replica copies — the surface the storage fault
// model acts on.
func storageTestCluster(repl int) *mr.Cluster {
	return mr.NewClusterWithFS(mr.Config{Machines: 4, SlotsPerMachine: 2},
		dfs.New(dfs.Options{BlockSize: 256, Replication: repl}))
}

// TestStorageReplicationSweepBitIdentical pins the acceptance
// invariant that the durability layer is invisible to the numerics: a
// PARAFAC run gives byte-for-byte the same model at replication 1, 2,
// and 3 (tiny 256-byte blocks) as on the default DFS (64 MiB blocks,
// replication 3). CI legs can select a single factor via
// HATEN2_STORAGE_REPL; locally the whole sweep runs.
func TestStorageReplicationSweepBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	x := randomSparse(rng, [3]int64{12, 10, 8}, 80)
	opt := Options{Variant: DRI, MaxIters: 5, Tol: 1e-12, Seed: 17}

	ref, err := ParafacALS(testCluster(), x, 3, opt)
	if err != nil {
		t.Fatal(err)
	}

	repls := []int{1, 2, 3}
	if v := os.Getenv("HATEN2_STORAGE_REPL"); v != "" {
		r, err := strconv.Atoi(v)
		if err != nil || r < 1 {
			t.Fatalf("bad HATEN2_STORAGE_REPL %q: %v", v, err)
		}
		repls = []int{r}
	}
	for _, repl := range repls {
		got, err := ParafacALS(storageTestCluster(repl), x, 3, opt)
		if err != nil {
			t.Fatalf("replication %d: %v", repl, err)
		}
		assertKruskalBitsEqual(t, ref.Model, got.Model)
	}
}

// TestStorageFaultySweepBitIdentical runs the same decomposition under
// seeded corruption and replica-loss plans at replication 3: whenever
// enough replicas survive for the run to finish, the model must be
// byte-identical to the fault-free reference — storage faults move
// time and counters, never factor bytes.
func TestStorageFaultySweepBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	x := randomSparse(rng, [3]int64{12, 10, 8}, 80)
	opt := Options{Variant: DRI, MaxIters: 5, Tol: 1e-12, Seed: 17}

	ref, err := ParafacALS(storageTestCluster(3), x, 3, opt)
	if err != nil {
		t.Fatal(err)
	}

	found := false
	for s := int64(0); s < 50 && !found; s++ {
		c := storageTestCluster(3)
		c.InstallFaultPlan(&mr.FaultPlan{Seed: s, BlockCorruptRate: 0.1, ReplicaLossRate: 0.05})
		got, err := ParafacALS(c, x, 3, opt)
		if err != nil {
			var dl *dfs.ErrDataLoss
			if !errors.As(err, &dl) {
				t.Fatalf("seed %d: unexpected error class: %v", s, err)
			}
			continue // every replica of some block was bad; covered below
		}
		tot := c.Totals()
		if tot.CorruptBlocks == 0 && tot.LostReplicas == 0 {
			continue // plan touched nothing this seed; not a real exercise
		}
		assertKruskalBitsEqual(t, ref.Model, got.Model)
		if tot.FailoverBytes+tot.ScrubBytes == 0 {
			t.Fatalf("seed %d: faults detected but no recovery traffic charged: %+v", s, tot)
		}
		if tot.StorageSeconds <= 0 {
			t.Fatalf("seed %d: recovery traffic charged no simulated time", s)
		}
		found = true
	}
	if !found {
		t.Fatal("no seed under 50 exercised corruption or loss without data loss")
	}
}

// TestStorageDataLossCheckpointResume is the end-to-end acceptance
// scenario for unrecoverable storage failure: at replication 1 a
// corrupt block has no surviving replica, the run dies with a typed
// *dfs.ErrDataLoss, and the driver resumes from its last checkpoint on
// the same DFS (faults cleared, as after an operator restored the
// volume) to a model byte-identical to an uninterrupted run.
func TestStorageDataLossCheckpointResume(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := randomSparse(rng, [3]int64{12, 10, 8}, 80)
	opt := Options{Variant: DRI, MaxIters: 6, Tol: 1e-12, Seed: 17, TrackFit: true}

	ref, err := ParafacALS(testCluster(), x, 3, opt)
	if err != nil {
		t.Fatal(err)
	}

	opt.Checkpoint = "models/storage"
	var survivor *mr.Cluster
	var lossErr error
	for s := int64(0); s < 60; s++ {
		c := storageTestCluster(1)
		c.InstallFaultPlan(&mr.FaultPlan{Seed: s, BlockCorruptRate: 0.02})
		_, err := ParafacALS(c, x, 3, opt)
		if err == nil {
			continue // clean run; try another seed below
		}
		var dl *dfs.ErrDataLoss
		if !errors.As(err, &dl) {
			t.Fatalf("seed %d: unexpected error class: %v", s, err)
		}
		if st, ckErr := loadCheckpoint(c, opt.Checkpoint, "parafac"); ckErr == nil && st != nil && st.iters > 0 {
			survivor, lossErr = c, err
			break
		}
		// Data loss before the first checkpoint committed; try again.
	}
	if survivor == nil {
		t.Fatal("no seed under 60 lost data after a committed checkpoint")
	}
	var ec *dfs.ErrCorrupt
	if !errors.As(lossErr, &ec) {
		t.Fatalf("data loss does not unwrap to the corrupt replica: %v", lossErr)
	}
	// The FS-level stats (not job totals: the fatal read may be a
	// driver-level ReadFile between jobs) record the detection.
	if st := survivor.FS().Stats(); st.CorruptBlocks == 0 {
		t.Fatalf("data loss without a detected corrupt block: %+v", st)
	}

	// Resume on the surviving DFS with the faults cleared (zero rates
	// uninstall the storage plan; previously corrupt blocks read clean).
	c2 := mr.NewClusterWithFS(mr.Config{Machines: 4, SlotsPerMachine: 2}, survivor.FS())
	c2.InstallFaultPlan(&mr.FaultPlan{})
	resumed, err := ParafacALS(c2, x, 3, opt)
	if err != nil {
		t.Fatal(err)
	}
	assertKruskalBitsEqual(t, ref.Model, resumed.Model)
	if resumed.Iters != ref.Iters {
		t.Fatalf("resumed run iterated %d times, reference %d", resumed.Iters, ref.Iters)
	}
}

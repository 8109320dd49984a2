package mrproc

import (
	"bytes"
	"errors"
	"math"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/haten2/haten2/internal/core"
	"github.com/haten2/haten2/internal/gen"
	"github.com/haten2/haten2/internal/mr"
	"github.com/haten2/haten2/internal/mr/conformance"
)

// TestMain diverts re-exec'd copies of this test binary into the worker
// loop: the proc backend spawns workers by running its own executable
// with the mrproc environment hook set.
func TestMain(m *testing.M) {
	MaybeWorker()
	os.Exit(m.Run())
}

func newMaster(t *testing.T, opt Options) *Master {
	t.Helper()
	m, err := New(opt)
	if err != nil {
		t.Fatalf("mrproc.New: %v", err)
	}
	return m
}

// TestConformanceProc is the package's headline test: the multi-process
// backend must pass the full cross-backend suite — nine golden traces
// byte-identical, fault matrix across GOMAXPROCS, and bit-identical
// PARAFAC/Tucker factors — with every shuffle partition and mirrored
// file round-tripping through real worker processes.
func TestConformanceProc(t *testing.T) {
	conformance.RunConformance(t, func(t *testing.T) mr.Backend {
		return newMaster(t, Options{Workers: 2})
	})
}

func TestPartitionRoundTrip(t *testing.T) {
	m := newMaster(t, Options{Workers: 2, HeartbeatInterval: -1})
	defer m.Close()
	k := mr.PartKey{Job: "grid", Seq: 1, Task: 0, Reducer: 3}
	if data, err := m.FetchPartition(k); err != nil || data != nil {
		t.Fatalf("fetch before ship: %v %v", data, err)
	}
	if err := m.ShipPartition(k, []byte("bucket bytes")); err != nil {
		t.Fatal(err)
	}
	other := mr.PartKey{Job: "grid", Seq: 2, Task: 1, Reducer: 0}
	if err := m.ShipPartition(other, []byte("other run")); err != nil {
		t.Fatal(err)
	}
	if data, err := m.FetchPartition(k); err != nil || string(data) != "bucket bytes" {
		t.Fatalf("fetch: %q %v", data, err)
	}
	// Releasing (job, seq) must drop exactly that run's partitions.
	if err := m.ReleaseJob("grid", 1); err != nil {
		t.Fatal(err)
	}
	if data, err := m.FetchPartition(k); err != nil || data != nil {
		t.Fatalf("fetch after release: %q %v", data, err)
	}
	if data, err := m.FetchPartition(other); err != nil || string(data) != "other run" {
		t.Fatalf("other run lost by release: %q %v", data, err)
	}
	s := m.Stats()
	if s.PartitionsShipped != 2 || s.PartitionsFetched != 2 {
		t.Fatalf("stats: %+v", s)
	}
}

// TestFileTransfer pins the file plane: a file is stored as the block
// it was shipped as and comes back byte for byte, a re-ship replaces it,
// a drop forgets it, a dead primary fails over to the next replica, and
// every replica's copy moves exactly once.
func TestFileTransfer(t *testing.T) {
	m := newMaster(t, Options{Workers: 2, Replication: 2, HeartbeatInterval: -1})
	defer m.Close()
	cells := make([]core.MatEntry, 3000)
	for i := range cells {
		cells[i] = core.MatEntry{Row: int64(i / 4), Col: int32(i % 4), Val: float64(i) / 7}
	}
	block := core.AppendMatEntryBlock(nil, cells)
	if err := m.ShipFile("stage/A", block); err != nil {
		t.Fatal(err)
	}
	if got, err := m.FetchFile("stage/A"); err != nil || !bytes.Equal(got, block) {
		t.Fatalf("fetch: %d of %d bytes, %v", len(got), len(block), err)
	}
	updated := core.AppendMatEntryBlock(nil, cells[:1000])
	if err := m.ShipFile("stage/A", updated); err != nil {
		t.Fatal(err)
	}
	if got, err := m.FetchFile("stage/A"); err != nil || !bytes.Equal(got, updated) {
		t.Fatalf("fetch after re-ship: %d of %d bytes, %v", len(got), len(updated), err)
	}
	s := m.Stats()
	if moved := int64(len(block) + len(updated)); s.FilesShipped != 2 || s.FileBytes != moved ||
		s.ChunksShipped != 4 || s.ChunkBytesShipped != 2*moved || s.ChunksDeduped != 0 || s.ChunkBytesDeduped != 0 {
		t.Fatalf("two ships of %d and %d bytes to 2 replicas: %+v", len(block), len(updated), s)
	}
	if err := m.DropFile("stage/A"); err != nil {
		t.Fatal(err)
	}
	var missing *mr.ErrNoRemoteFile
	if _, err := m.FetchFile("stage/A"); !errors.As(err, &missing) {
		t.Fatalf("fetch after drop: %v", err)
	}
	if err := m.ShipFile("stage/B", block); err != nil {
		t.Fatal(err)
	}
	reap(t, m, m.fileWorkers("stage/B")[0].id)
	if got, err := m.FetchFile("stage/B"); err != nil || !bytes.Equal(got, block) {
		t.Fatalf("fetch with the primary dead: %d of %d bytes, %v", len(got), len(block), err)
	}
}

// TestMembershipLifecycle walks the state machine: live after New, dead
// after a kill is noticed by the heartbeat, exited after Close — and a
// surviving replica keeps the file plane available throughout.
func TestMembershipLifecycle(t *testing.T) {
	m := newMaster(t, Options{Workers: 2, Replication: 2, HeartbeatInterval: 25 * time.Millisecond})
	defer m.Close()
	for id, s := range m.States() {
		if s != StateLive {
			t.Fatalf("worker %d after New: %v", id, s)
		}
	}
	if err := m.ShipFile("survivor", []byte("replicated twice")); err != nil {
		t.Fatal(err)
	}
	if err := m.KillWorker(1); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for m.States()[1] != StateDead {
		if time.Now().After(deadline) {
			t.Fatalf("heartbeat never marked killed worker dead: %v", m.States())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if s := m.Stats(); s.Heartbeats == 0 || s.HeartbeatMisses == 0 {
		t.Fatalf("heartbeat counters: %+v", s)
	}
	if m.States()[0] != StateLive {
		t.Fatalf("worker 0 should be unaffected: %v", m.States())
	}
	// File plane degrades, not fails: the surviving replica serves reads
	// and absorbs writes.
	if got, err := m.FetchFile("survivor"); err != nil || string(got) != "replicated twice" {
		t.Fatalf("fetch with one replica dead: %q %v", got, err)
	}
	if err := m.ShipFile("survivor2", []byte("one live replica left")); err != nil {
		t.Fatalf("ship with one replica dead: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("close with a dead worker: %v", err)
	}
	for id, s := range m.States() {
		if s != StateExited {
			t.Fatalf("worker %d after Close: %v", id, s)
		}
	}
}

// TestDrainShutdownClean is the regression pin for the shutdown race:
// traffic immediately before Close must never surface an ECONNRESET —
// the drain handshake has the worker hold its socket open until the
// master closes first.
func TestDrainShutdownClean(t *testing.T) {
	for i := 0; i < 10; i++ {
		m := newMaster(t, Options{Workers: 2, HeartbeatInterval: -1})
		for j := 0; j < 4; j++ {
			k := mr.PartKey{Job: "drain", Seq: int64(i), Task: j}
			if err := m.ShipPartition(k, bytes.Repeat([]byte{byte(j)}, 4096)); err != nil {
				t.Fatalf("iteration %d: ship: %v", i, err)
			}
		}
		if err := m.ShipFile("drain/file", bytes.Repeat([]byte("x"), 3<<16)); err != nil {
			t.Fatalf("iteration %d: ship file: %v", i, err)
		}
		if err := m.Close(); err != nil {
			t.Fatalf("iteration %d: close: %v", i, err)
		}
		for id, s := range m.States() {
			if s != StateExited {
				t.Fatalf("iteration %d: worker %d state %v after Close", i, id, s)
			}
		}
	}
}

// TestStartStopGoroutineClean pins that Close joins everything the
// master started: repeated start/stop cycles (heartbeat enabled) leave
// the goroutine count where it began.
func TestStartStopGoroutineClean(t *testing.T) {
	cycle := func() {
		m := newMaster(t, Options{Workers: 2, HeartbeatInterval: 10 * time.Millisecond})
		if err := m.ShipPartition(mr.PartKey{Job: "leak", Seq: 1}, []byte("payload")); err != nil {
			t.Fatal(err)
		}
		if err := m.ShipFile("leak/file", []byte("mirror")); err != nil {
			t.Fatal(err)
		}
		if err := m.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
	}
	cycle() // warm up lazy runtime machinery before taking the baseline
	before := runtime.NumGoroutine()
	for i := 0; i < 8; i++ {
		cycle()
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d -> %d\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestWindowLargerThanSocketBuffers pins that a window cannot wedge:
// 64 partitions of 4 MiB are far more than the loopback socket buffers
// hold in either direction, so the ship window only completes if acks
// never block the worker, and the fetch window only if the worker has
// read its whole request before it starts to reply.
func TestWindowLargerThanSocketBuffers(t *testing.T) {
	m := newMaster(t, Options{Workers: 2, HeartbeatInterval: -1})
	defer m.Close()
	const parts, size = 64, 4 << 20
	keys := make([]mr.PartKey, parts)
	blocks := make([][]byte, parts)
	for i := range keys {
		keys[i] = mr.PartKey{Job: "big", Seq: 1, Task: i, Reducer: i % 3}
		blocks[i] = bytes.Repeat([]byte{byte(i + 1)}, size)
	}
	if err := m.ShipPartitions(keys, blocks); err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, parts)
	err := m.FetchPartitions(keys, func(i int, data []byte) error {
		if seen[i] || !bytes.Equal(data, blocks[i]) {
			t.Errorf("partition %d: visited twice or %d bytes differ", i, len(data))
		}
		seen[i] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("partition %d never visited", i)
		}
	}
	if s := m.Stats(); s.PartitionsShipped != parts || s.PartitionBytes != parts*size || s.PartitionsFetched != parts {
		t.Fatalf("stats count partitions and their bytes, not frames: %+v", s)
	}
}

// reap kills worker id and waits for the process to be gone, so that
// whatever the test does next meets a closed socket, not a race.
func reap(t *testing.T, m *Master, id int) {
	t.Helper()
	if err := m.KillWorker(id); err != nil {
		t.Error(err) // not Fatal: a backend under test calls this from reducer goroutines
	}
	_ = m.workers[id].cmd.Wait() // "signal: killed" is the point
}

// TestKillWorkerMidWindow kills a worker while windows are in flight:
// inside a fetch window that spans both workers (deterministically, from
// the first visit) and under a ship window too large to have left the
// master yet. Either way the call must come back with an error well
// inside IOTimeout, the worker must be Dead, later windows must be
// refused as worker-down without touching the socket, and Close must
// still join everything the master started.
func TestKillWorkerMidWindow(t *testing.T) {
	before := runtime.NumGoroutine()
	const ioTimeout = 5 * time.Second
	within := func(what string, f func() error) error {
		t.Helper()
		start := time.Now()
		err := f()
		if d := time.Since(start); d > ioTimeout/2 {
			t.Fatalf("%s took %v: a dead worker must fail the window, not time it out", what, d)
		}
		return err
	}

	m := newMaster(t, Options{Workers: 2, HeartbeatInterval: -1, IOTimeout: ioTimeout})
	var keys []mr.PartKey
	var blocks [][]byte
	for r := 0; r < 8; r++ {
		keys = append(keys, mr.PartKey{Job: "kill", Seq: 1, Reducer: r})
		blocks = append(blocks, bytes.Repeat([]byte{byte(r)}, 1<<10))
	}
	var share [2]int // partitions of the window per worker
	if err := m.eachWorker(keys, func(w *worker, idx []int) error { share[w.id] = len(idx); return nil }); err != nil || share[0]*share[1] == 0 {
		t.Fatalf("window does not span both workers: %v (err %v)", share, err)
	}
	if err := m.ShipPartitions(keys, blocks); err != nil {
		t.Fatal(err)
	}
	visits := 0
	err := within("fetch window", func() error {
		return m.FetchPartitions(keys, func(int, []byte) error {
			if visits++; visits == 1 {
				reap(t, m, 1) // worker 0's share is in; worker 1's is still to come
			}
			return nil
		})
	})
	if err == nil || visits != share[0] || m.States()[1] != StateDead {
		t.Fatalf("fetch window across a killed worker: err %v after %d visits, states %v", err, visits, m.States())
	}
	var down *errWorkerDown
	if err := within("ship to a dead worker", func() error { return m.ShipPartitions(keys, blocks) }); !errors.As(err, &down) {
		t.Fatalf("ship window to a dead worker: want worker-down error, got %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("close with a dead worker: %v", err)
	}

	m = newMaster(t, Options{Workers: 1, HeartbeatInterval: -1, IOTimeout: ioTimeout})
	big := make([][]byte, 64)
	for i := range big {
		big[i] = make([]byte, 4<<20)
	}
	shipped := make(chan error, 1)
	go func() { shipped <- m.ShipPartitions(make([]mr.PartKey, len(big)), big) }()
	reap(t, m, 0)
	select {
	case err := <-shipped:
		// nil only if all 256 MiB left before the kill landed.
		if err == nil {
			t.Log("ship window completed before the kill")
		}
	case <-time.After(ioTimeout / 2):
		t.Fatal("ship window still blocked long after its worker died")
	}
	if err := m.ShipPartition(mr.PartKey{Job: "after"}, []byte("x")); err == nil {
		t.Fatal("ship to a killed worker succeeded")
	}
	if err := m.Close(); err != nil {
		t.Fatalf("close with a dead worker: %v", err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d -> %d\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// killOnFetch is a Master whose worker 1 dies when the Nth fetch window
// begins — after that job's map output has been shipped to it and
// before its reducers have read it back.
type killOnFetch struct {
	*Master
	fetches atomic.Int64
	at      int64
	kill    func()
}

func (k *killOnFetch) FetchPartitions(keys []mr.PartKey, visit func(int, []byte) error) error {
	if k.fetches.Add(1) == k.at {
		k.kill()
	}
	return k.Master.FetchPartitions(keys, visit)
}

// TestKillWorkerMidShuffleCheckpointResume is ROADMAP's "faults across
// the process boundary": a worker is killed between the ship and the
// fetch of a job in the middle of a real checkpointed decomposition. The
// job fails with a typed, wrapped error inside IOTimeout (the shuffle
// plane is authoritative — nothing falls back), and the run resumed from
// its checkpoint on a fresh backend over the surviving DFS ends in the
// factors of an uninterrupted in-process run, bit for bit.
func TestKillWorkerMidShuffleCheckpointResume(t *testing.T) {
	x := gen.Random(42, [3]int64{12, 10, 8}, 240)
	cfg := mr.Config{Machines: 2, SlotsPerMachine: 2}
	opt := core.Options{Variant: core.DRI, MaxIters: 4, Tol: 1e-12, Seed: 5, Checkpoint: "models/parafac"}
	want, err := core.ParafacALS(mr.NewCluster(cfg), x, 3, opt)
	if err != nil {
		t.Fatal(err)
	}

	// A healthy run counts the fetch windows; the faulty one dies halfway.
	const ioTimeout = 5 * time.Second
	count := &killOnFetch{Master: newMaster(t, Options{Workers: 2, HeartbeatInterval: -1})}
	c0 := mr.NewCluster(cfg)
	c0.SetBackend(count)
	if _, err := core.ParafacALS(c0, x, 3, opt); err != nil {
		t.Fatal(err)
	}
	count.Close()

	m1 := newMaster(t, Options{Workers: 2, HeartbeatInterval: -1, IOTimeout: ioTimeout})
	defer m1.Close()
	c1 := mr.NewCluster(cfg)
	c1.SetBackend(&killOnFetch{Master: m1, at: count.fetches.Load() / 2, kill: func() { reap(t, m1, 1) }})
	start := time.Now()
	_, err = core.ParafacALS(c1, x, 3, opt)
	// Reducers fetch concurrently, so the window that pulls the trigger
	// may be the job's last: then the loss surfaces at the next job's ship.
	if err == nil || !strings.Contains(err.Error(), "shuffle") || !strings.Contains(err.Error(), "mrproc: worker 1") {
		t.Fatalf("want a shuffle failure naming worker 1, got %v", err)
	}
	if d := time.Since(start); d > ioTimeout/2 || m1.States()[1] != StateDead {
		t.Fatalf("failed after %v with states %v", d, m1.States())
	}

	m2 := newMaster(t, Options{Workers: 2, HeartbeatInterval: -1})
	defer m2.Close()
	c2 := mr.NewClusterWithFS(cfg, c1.FS())
	c2.SetBackend(m2)
	got, err := core.ParafacALS(c2, x, 3, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got.Iters != want.Iters || !reflect.DeepEqual(got.Model, want.Model) {
		t.Fatal("run resumed after the worker kill differs from the uninterrupted run")
	}
	for i, v := range want.Model.Lambda {
		if math.Float64bits(v) != math.Float64bits(got.Model.Lambda[i]) {
			t.Fatalf("lambda[%d] differs bitwise", i)
		}
	}
	if c2.Totals().Jobs >= c0.Totals().Jobs {
		t.Fatalf("resumed run ran %d jobs, a full run %d: nothing was resumed", c2.Totals().Jobs, c0.Totals().Jobs)
	}
}

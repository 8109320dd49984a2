package mrproc

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/haten2/haten2/internal/dfs"
	"github.com/haten2/haten2/internal/mr"
)

// WorkerState is one node of the membership state machine the master
// drives for each worker process:
//
//	Spawned ──register──▶ Live ──drain──▶ Draining ──exit──▶ Exited
//	   │                   │
//	   └───timeout──▶ Dead ◀──heartbeat miss / RPC error
//
// Dead is terminal short of Exited: the master never reconnects a dead
// worker (its partitions are gone; jobs holding shuffle there fail and
// the caller decides what to do). Exited is the orderly end of Close.
type WorkerState int32

const (
	StateSpawned WorkerState = iota
	StateLive
	StateDraining
	StateDead
	StateExited
)

func (s WorkerState) String() string {
	switch s {
	case StateSpawned:
		return "spawned"
	case StateLive:
		return "live"
	case StateDraining:
		return "draining"
	case StateDead:
		return "dead"
	case StateExited:
		return "exited"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// Options configures a proc backend.
type Options struct {
	// Workers is the number of worker processes (default 2).
	Workers int
	// Replication is how many workers hold each file ShipFile stores
	// (default min(2, Workers)); probe-only, removed after ROADMAP item
	// 1. Shuffle partitions are not replicated: they are transient
	// per-job state, and losing one fails the job just as a lost map
	// output does on Hadoop.
	Replication int
	// HeartbeatInterval is the membership probe period (default 500ms).
	// Zero takes the default; negative disables the heartbeat loop
	// (liveness is then detected on use).
	HeartbeatInterval time.Duration
	// IOTimeout bounds each socket round trip (default 10s).
	IOTimeout time.Duration
	// SpawnTimeout bounds how long New waits for all workers to
	// register (default 10s).
	SpawnTimeout time.Duration
	// Command, when non-empty, is the argv of the worker binary
	// (cmd/haten2worker) to spawn. Empty re-execs the current
	// executable, relying on an early MaybeWorker call in its main or
	// TestMain.
	Command []string
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.Replication <= 0 {
		o.Replication = 2
	}
	if o.Replication > o.Workers {
		o.Replication = o.Workers
	}
	if o.HeartbeatInterval == 0 {
		o.HeartbeatInterval = 500 * time.Millisecond
	}
	if o.IOTimeout <= 0 {
		o.IOTimeout = 10 * time.Second
	}
	if o.SpawnTimeout <= 0 {
		o.SpawnTimeout = 10 * time.Second
	}
	return o
}

// Stats counts the backend's transport work. Pure observability: none
// of these feed the engine's counters or simulated time. A decomposition
// moves only partitions; the File* and Chunk* counters move only when a
// caller ships a file itself.
type Stats struct {
	PartitionsShipped int64
	PartitionBytes    int64
	PartitionsFetched int64
	// FilesShipped and FileBytes count the files ShipFile stored and
	// their bytes once each; ChunksShipped and ChunkBytesShipped count
	// the per-replica transfers and the bytes they moved. Probe-only,
	// removed after ROADMAP item 1.
	FilesShipped      int64
	FileBytes         int64
	ChunksShipped     int64
	ChunkBytesShipped int64
	// ChunksDeduped and ChunkBytesDeduped are always 0: files move whole,
	// with nothing deduplicated. They remain, with the Chunk* names, only
	// until the benchmark stops reading them.
	ChunksDeduped     int64
	ChunkBytesDeduped int64
	Heartbeats        int64
	HeartbeatMisses   int64
}

// worker is the master's handle on one worker process: the connection
// (serialized by mu — one conversation at a time per worker, a
// conversation being one request/response round, one file transfer, or
// one partition window whose requests are all written before its
// in-order replies are read), the process, and the membership state.
type worker struct {
	id    int
	cmd   *exec.Cmd
	state atomic.Int32

	mu   sync.Mutex
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
}

func (w *worker) getState() WorkerState  { return WorkerState(w.state.Load()) }
func (w *worker) setState(s WorkerState) { w.state.Store(int32(s)) }

// errWorkerDown reports an operation against a worker that is not live.
type errWorkerDown struct {
	id    int
	state WorkerState
}

func (e *errWorkerDown) Error() string {
	return fmt.Sprintf("mrproc: worker %d is %s", e.id, e.state)
}

// Master is the multi-process backend: it implements mr.Backend by
// parking shuffle partitions in worker processes over local TCP
// sockets.
type Master struct {
	opt     Options
	workers []*worker

	stats struct {
		partsShipped, partBytes, partsFetched atomic.Int64
		filesShipped, fileBytes               atomic.Int64
		chunksShipped, chunkBytesShipped      atomic.Int64
		heartbeats, heartbeatMisses           atomic.Int64
	}

	hbStop chan struct{}
	hbDone chan struct{}

	closeOnce sync.Once
	closeErr  error
}

// New spawns opt.Workers worker processes, waits for all of them to
// register, and starts the membership heartbeat. The returned Master is
// ready to install with (*mr.Cluster).SetBackend.
func New(opt Options) (*Master, error) {
	opt = opt.withDefaults()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("mrproc: listen: %w", err)
	}
	defer ln.Close() // registration only; all later traffic uses accepted conns
	m := &Master{opt: opt, hbStop: make(chan struct{}), hbDone: make(chan struct{})}
	for id := 0; id < opt.Workers; id++ {
		w := &worker{id: id}
		w.setState(StateSpawned)
		cmd, err := spawnWorker(opt, ln.Addr().String(), id)
		if err != nil {
			m.killSpawned()
			return nil, err
		}
		w.cmd = cmd
		m.workers = append(m.workers, w)
	}
	deadline := time.Now().Add(opt.SpawnTimeout)
	for registered := 0; registered < opt.Workers; registered++ {
		if err := m.acceptOne(ln, deadline); err != nil {
			m.killSpawned()
			return nil, err
		}
	}
	if opt.HeartbeatInterval > 0 {
		// The heartbeat loop is the master's persistent daemon; Close
		// closes hbStop and blocks on hbDone to join it.
		go m.heartbeatLoop()
	} else {
		close(m.hbDone)
	}
	return m, nil
}

// spawnWorker starts one worker process, either the configured worker
// binary or a re-exec of the current executable with the environment
// hook set.
func spawnWorker(opt Options, addr string, id int) (*exec.Cmd, error) {
	var cmd *exec.Cmd
	if len(opt.Command) > 0 {
		cmd = exec.Command(opt.Command[0], opt.Command[1:]...)
	} else {
		exe, err := os.Executable()
		if err != nil {
			return nil, fmt.Errorf("mrproc: locate executable: %w", err)
		}
		cmd = exec.Command(exe)
	}
	cmd.Env = append(os.Environ(),
		envMaster+"="+addr,
		envID+"="+fmt.Sprint(id),
	)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("mrproc: spawn worker %d: %w", id, err)
	}
	return cmd, nil
}

// acceptOne accepts one registration, validates the hello, and moves
// that worker to Live.
func (m *Master) acceptOne(ln net.Listener, deadline time.Time) error {
	if tl, ok := ln.(*net.TCPListener); ok {
		if err := tl.SetDeadline(deadline); err != nil {
			return err
		}
	}
	conn, err := ln.Accept()
	if err != nil {
		return fmt.Errorf("mrproc: worker registration: %w", err)
	}
	if err := conn.SetDeadline(deadline); err != nil {
		conn.Close()
		return err
	}
	br := bufio.NewReaderSize(conn, 64<<10)
	t, payload, err := readFrame(br)
	if err != nil || t != ftHello {
		conn.Close()
		return fmt.Errorf("mrproc: bad registration frame (type %d): %v", t, err)
	}
	id, err := decHello(payload)
	if err != nil || id < 0 || id >= len(m.workers) {
		conn.Close()
		return fmt.Errorf("mrproc: registration with invalid worker id %d: %v", id, err)
	}
	w := m.workers[id]
	if w.getState() != StateSpawned {
		conn.Close()
		return fmt.Errorf("mrproc: duplicate registration for worker %d", id)
	}
	bw := bufio.NewWriterSize(conn, 64<<10)
	if err := writeFrame(bw, ftHelloOK, nil); err != nil {
		conn.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		conn.Close()
		return err
	}
	// Clear the registration deadline; per-operation deadlines take over.
	if err := conn.SetDeadline(time.Time{}); err != nil {
		conn.Close()
		return err
	}
	w.conn, w.br, w.bw = conn, br, bw
	w.setState(StateLive)
	return nil
}

// killSpawned is New's failure cleanup: terminate any processes already
// started.
func (m *Master) killSpawned() {
	for _, w := range m.workers {
		if w.cmd != nil && w.cmd.Process != nil {
			_ = w.cmd.Process.Kill()
			_ = w.cmd.Wait()
		}
	}
}

// heartbeatLoop pings every worker once per interval until Close stops
// it. A failed ping marks the worker dead (and the rpc path closes the
// connection); liveness decisions affect wall-clock behavior only.
func (m *Master) heartbeatLoop() {
	defer close(m.hbDone)
	tick := time.NewTicker(m.opt.HeartbeatInterval)
	defer tick.Stop()
	for {
		select {
		case <-m.hbStop:
			return
		case <-tick.C:
			for _, w := range m.workers {
				if w.getState() != StateLive {
					continue
				}
				m.stats.heartbeats.Add(1)
				if _, _, err := m.call(w, ftPing, nil, ftPong); err != nil {
					m.stats.heartbeatMisses.Add(1)
				}
			}
		}
	}
}

// markDown transitions a worker to Dead and closes its connection.
// Called with w.mu held.
func (w *worker) markDownLocked() {
	if w.getState() == StateLive {
		w.setState(StateDead)
	}
	if w.conn != nil {
		w.conn.Close()
	}
}

// call performs one request/response round with a worker. Any
// transport error, unexpected frame type, or worker-reported ftError
// marks the worker dead (a desynchronized request/response stream
// cannot be trusted again) and is returned.
func (m *Master) call(w *worker, t frameType, payload []byte, want ...frameType) (frameType, []byte, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return m.callLocked(w, t, payload, want...)
}

func (m *Master) callLocked(w *worker, t frameType, payload []byte, want ...frameType) (frameType, []byte, error) {
	if err := m.sendFrameLocked(w, t, payload); err != nil {
		return ftInvalid, nil, err
	}
	return m.recvLocked(w, nil, want...)
}

// armLocked starts one bounded step of a conversation: it refuses a
// worker that is not live and gives the socket IOTimeout from now, so a
// window of any size times out only when it stops making progress.
// Called with w.mu held.
func (m *Master) armLocked(w *worker) error {
	if s := w.getState(); s != StateLive {
		return &errWorkerDown{id: w.id, state: s}
	}
	if err := w.conn.SetDeadline(time.Now().Add(m.opt.IOTimeout)); err != nil {
		w.markDownLocked()
		return err
	}
	return nil
}

// sendLocked writes the frames built in buf to the worker. Called with
// w.mu held.
func (m *Master) sendLocked(w *worker, buf []byte) error {
	if err := m.armLocked(w); err != nil {
		return err
	}
	_, err := w.bw.Write(buf)
	return m.flushLocked(w, err)
}

// sendFrameLocked writes one frame of type t to the worker, its payload
// the parts laid end to end, each written from where it lies: a file's
// block is never copied into a frame. Called with w.mu held.
func (m *Master) sendFrameLocked(w *worker, t frameType, payload ...[]byte) error {
	if err := m.armLocked(w); err != nil {
		return err
	}
	return m.flushLocked(w, writeFrame(w.bw, t, payload...))
}

// flushLocked completes a send: it flushes what was written unless the
// write already failed, and a failure of either marks the worker down.
// Called with w.mu held.
func (m *Master) flushLocked(w *worker, err error) error {
	if err == nil {
		err = w.bw.Flush()
	}
	if err != nil {
		w.markDownLocked()
		return fmt.Errorf("mrproc: worker %d: %w", w.id, err)
	}
	return nil
}

// recvLocked reads one response frame, appending its payload to dst,
// and validates its type. Called with w.mu held, after a request has
// been written.
func (m *Master) recvLocked(w *worker, dst []byte, want ...frameType) (frameType, []byte, error) {
	if err := m.armLocked(w); err != nil {
		return ftInvalid, dst, err
	}
	at := len(dst)
	rt, dst, err := readFrameAppend(w.br, dst)
	if err != nil {
		w.markDownLocked()
		return ftInvalid, dst, fmt.Errorf("mrproc: worker %d: %w", w.id, err)
	}
	if rt == ftError {
		w.markDownLocked()
		return ftInvalid, dst[:at], fmt.Errorf("mrproc: worker %d: %s", w.id, dst[at:])
	}
	for _, wt := range want {
		if rt == wt {
			return rt, dst, nil
		}
	}
	w.markDownLocked()
	return ftInvalid, dst[:at], fmt.Errorf("mrproc: worker %d: unexpected frame type %d", w.id, rt)
}

// --- placement ---------------------------------------------------------

// eachWorker splits a partition window by placement and runs share on
// every worker that owns part of it, with the indexes into keys it owns,
// in window order. Placement hashes (job, seq, reducer) and ignores the
// task, so one reducer's partitions share a worker and its fetch window
// is a single conversation; a map task's ship window fans out over at
// most min(reducers, workers) of them.
func (m *Master) eachWorker(keys []mr.PartKey, share func(w *worker, idx []int) error) error {
	idx := make([][]int, len(m.workers))
	var pw protoWriter
	for i, k := range keys {
		k.Task, pw.b = 0, pw.b[:0]
		encPartKey(&pw, k)
		w := dfs.HashBytes(pw.b) % uint64(len(m.workers))
		idx[w] = append(idx[w], i)
	}
	for id, idx := range idx {
		if len(idx) > 0 {
			if err := share(m.workers[id], idx); err != nil {
				return err
			}
		}
	}
	return nil
}

// fileWorkers returns the replication-many workers holding a file, in
// placement order: primary first, then successive ring neighbors.
func (m *Master) fileWorkers(name string) []*worker {
	h := dfs.HashBytes([]byte(name))
	n := len(m.workers)
	out := make([]*worker, 0, m.opt.Replication)
	for i := 0; i < m.opt.Replication; i++ {
		out = append(out, m.workers[(int(h%uint64(n))+i)%n])
	}
	return out
}

// --- mr.Backend --------------------------------------------------------

// Name identifies the backend in reports.
func (m *Master) Name() string { return "proc" }

// Frame slabs. Partition windows are built in, and read back into, byte
// slabs borrowed from the engine's pools (mr.Acquire): the master moves
// thousands of windows per decomposition, and a fresh buffer per frame
// was most of its allocation volume. A slab has exactly one owner at a
// time — the function that acquired it, which hands it back with
// mr.Recycle on every path (the window tests check mr.Lent under the
// race detector, where a Recycle also poisons the slab). Payloads handed
// out of a slab are lent, never given: they die with the Recycle.

// frameTarget is the payload size at which a ship window closes one
// frame and opens the next. It bounds the frame slab (one frame plus one
// partition) whatever the window holds, and keeps a window's acks — one
// per frame — to a few bytes per MiB shipped.
const frameTarget = 1 << 20

// ShipPartitions stores one window of encoded shuffle partitions on
// their placed workers. Partition loss fails jobs, so a down worker is
// an error, not a fallback. Each worker's share goes out back to back as
// (key, block) entries of ftShipPart frames, every frame written before
// the first ack is read: the worker acks each frame with a few bytes
// while the master is still writing, so neither side can fill the
// other's socket buffer however large the blocks are.
func (m *Master) ShipPartitions(keys []mr.PartKey, blocks [][]byte) error {
	return m.eachWorker(keys, func(w *worker, idx []int) error {
		w.mu.Lock()
		defer w.mu.Unlock()
		buf := mr.Acquire[byte](0)
		defer func() { mr.Recycle(buf) }()
		parts, frames, bytes := int64(len(idx)), 0, int64(0)
		for ; len(idx) > 0; frames++ {
			var pw protoWriter
			var at int
			pw.b, at = beginFrame(buf[:0], ftShipPart)
			for ; len(idx) > 0 && len(pw.b) < frameTarget; idx = idx[1:] {
				encPartKey(&pw, keys[idx[0]])
				pw.bytes(blocks[idx[0]])
				bytes += int64(len(blocks[idx[0]]))
			}
			buf = endFrame(pw.b, at)
			if err := m.sendLocked(w, buf); err != nil {
				return err
			}
		}
		for ; frames > 0; frames-- {
			var err error
			if _, buf, err = m.recvLocked(w, buf[:0], ftOK); err != nil {
				return err
			}
		}
		m.stats.partsShipped.Add(parts)
		m.stats.partBytes.Add(bytes)
		return nil
	})
}

// FetchPartitions reads one window of partitions back from their placed
// workers. For each worker's share a single ftFetchPart frame names
// every partition wanted, and the worker answers with one ftPartData or
// ftPartAbsent frame per key, in order: it has read the whole request
// before it writes its first reply, so replies larger than the socket
// buffers only ever wait for the master's reads, which have already
// begun. visit runs with no lock held, after the share's replies are in:
// what is resident is that share's encoded blocks, once.
func (m *Master) FetchPartitions(keys []mr.PartKey, visit func(i int, data []byte) error) error {
	return m.eachWorker(keys, func(w *worker, idx []int) error {
		buf := mr.Acquire[byte](0)
		defer func() { mr.Recycle(buf) }()
		ends := make([]int, len(idx)) // reply j is buf[ends[j-1]:ends[j]], or absent when ends[j] < 0
		if err := func() (err error) {
			w.mu.Lock()
			defer w.mu.Unlock()
			var pw protoWriter
			var at int
			pw.b, at = beginFrame(buf[:0], ftFetchPart)
			for _, i := range idx {
				encPartKey(&pw, keys[i])
			}
			buf = endFrame(pw.b, at)
			if err = m.sendLocked(w, buf); err != nil {
				return err
			}
			buf = buf[:0]
			for j := range ends {
				var t frameType
				if t, buf, err = m.recvLocked(w, buf, ftPartData, ftPartAbsent); err != nil {
					return err
				}
				if ends[j] = len(buf); t == ftPartAbsent {
					ends[j] = -1
				}
			}
			return nil
		}(); err != nil {
			return err
		}
		lo := 0
		for j, hi := range ends {
			var data []byte
			if hi >= 0 {
				data, lo = buf[lo:hi:hi], hi
				m.stats.partsFetched.Add(1)
			}
			if err := visit(idx[j], data); err != nil {
				return err
			}
		}
		return nil
	})
}

// ShipPartition and FetchPartition are the window-of-one cases, for
// callers (probes, tests) that hold a single partition. FetchPartition
// returns (nil, nil) when no partition was shipped for k.
func (m *Master) ShipPartition(k mr.PartKey, data []byte) error {
	return m.ShipPartitions([]mr.PartKey{k}, [][]byte{data})
}

func (m *Master) FetchPartition(k mr.PartKey) (data []byte, err error) {
	err = m.FetchPartitions([]mr.PartKey{k}, func(_ int, lent []byte) error {
		if lent != nil {
			data = append([]byte{}, lent...)
		}
		return nil
	})
	return data, err
}

// ReleaseJob drops a job run's partitions on every live worker.
func (m *Master) ReleaseJob(job string, seq int64) error {
	var firstErr error
	for _, w := range m.workers {
		if w.getState() != StateLive {
			continue
		}
		if _, _, err := m.call(w, ftReleaseJob, encReleaseJob(job, seq), ftOK); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// ShipFile stores a file on its replication set as one ftShipFile
// frame (name, block) per replica, the block written from the caller's
// slice. The file frames are not part of mr.Backend, and no
// decomposition ships a file: ShipFile, FetchFile and DropFile are
// probe-only, removed after ROADMAP item 1. The replicas are locked in
// worker order, so concurrent ships cannot deadlock, and the frame goes
// to every one of them before any ack is read: a worker reads a whole
// frame before it acks, so the acks only ever wait for the master's
// reads. A file counts as shipped when at least one replica stored it.
func (m *Master) ShipFile(name string, data []byte) error {
	if len(name)+len(data)+binary.MaxVarintLen64 > maxFramePayload {
		return ErrOversized // too big for one frame: the file is not stored
	}
	ws := m.fileWorkers(name)
	slices.SortFunc(ws, func(a, b *worker) int { return a.id - b.id })
	for _, w := range ws {
		w.mu.Lock()
		defer w.mu.Unlock()
	}
	var pw protoWriter
	pw.str(name)
	var sent []*worker
	var firstErr error
	for _, w := range ws {
		if err := m.sendFrameLocked(w, ftShipFile, pw.b, data); err != nil {
			firstErr = cmp.Or(firstErr, err)
			continue
		}
		sent = append(sent, w)
	}
	stored := 0
	for _, w := range sent {
		if _, _, err := m.recvLocked(w, nil, ftFileOK); err != nil {
			firstErr = cmp.Or(firstErr, err)
			continue
		}
		stored++
	}
	if stored == 0 {
		return firstErr
	}
	m.stats.filesShipped.Add(1)
	m.stats.fileBytes.Add(int64(len(data)))
	m.stats.chunksShipped.Add(int64(stored))
	m.stats.chunkBytesShipped.Add(int64(stored * len(data)))
	return nil
}

// FetchFile reads a stored file from the first live replica that holds
// it, and returns (nil, nil) when none does.
func (m *Master) FetchFile(name string) ([]byte, error) {
	var firstErr error
	for _, w := range m.fileWorkers(name) {
		t, p, err := m.call(w, ftFetchFile, encName(name), ftFileData, ftFileAbsent)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if t == ftFileData {
			return p, nil
		}
	}
	return nil, firstErr
}

// DropFile forgets a file on its replication set.
func (m *Master) DropFile(name string) error {
	var firstErr error
	for _, w := range m.fileWorkers(name) {
		if w.getState() != StateLive {
			continue
		}
		if _, _, err := m.call(w, ftDropFile, encName(name), ftOK); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Close drains and stops every worker: stop the heartbeat, send each
// live worker a drain (it finishes in-flight work, acknowledges, and
// waits for us to close the socket — see serve in worker.go for why
// that order kills the shutdown race), close the connections, and reap
// the processes.
func (m *Master) Close() error {
	m.closeOnce.Do(func() {
		close(m.hbStop)
		<-m.hbDone
		var errs []error
		for _, w := range m.workers {
			if w.getState() == StateLive {
				if _, _, err := m.call(w, ftDrain, nil, ftDrainOK); err != nil {
					errs = append(errs, err)
				} else {
					w.setState(StateDraining)
				}
			}
			w.mu.Lock()
			if w.conn != nil {
				w.conn.Close()
			}
			w.mu.Unlock()
			if w.cmd != nil {
				if err := w.cmd.Wait(); err != nil && w.getState() == StateDraining {
					errs = append(errs, fmt.Errorf("mrproc: worker %d exit: %w", w.id, err))
				}
			}
			w.setState(StateExited)
		}
		m.closeErr = errors.Join(errs...)
	})
	return m.closeErr
}

// KillWorker forcibly terminates a worker process without a drain —
// the chaos hook for membership tests and fault experiments. The
// heartbeat (or the next RPC routed to the worker) observes the death
// and marks the worker Dead.
func (m *Master) KillWorker(id int) error {
	if id < 0 || id >= len(m.workers) {
		return fmt.Errorf("mrproc: no worker %d", id)
	}
	w := m.workers[id]
	if w.cmd == nil || w.cmd.Process == nil {
		return fmt.Errorf("mrproc: worker %d has no process", id)
	}
	return w.cmd.Process.Kill()
}

// Stats snapshots the transport counters.
func (m *Master) Stats() Stats {
	return Stats{
		PartitionsShipped: m.stats.partsShipped.Load(),
		PartitionBytes:    m.stats.partBytes.Load(),
		PartitionsFetched: m.stats.partsFetched.Load(),
		FilesShipped:      m.stats.filesShipped.Load(),
		FileBytes:         m.stats.fileBytes.Load(),
		ChunksShipped:     m.stats.chunksShipped.Load(),
		ChunkBytesShipped: m.stats.chunkBytesShipped.Load(),
		Heartbeats:        m.stats.heartbeats.Load(),
		HeartbeatMisses:   m.stats.heartbeatMisses.Load(),
	}
}

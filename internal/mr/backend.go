package mr

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
)

// Backend is the engine's pluggable shuffle plane. A job's computation
// — the map and reduce closures — always runs in the engine's process
// (closures cannot cross a process boundary), and so do its DFS reads
// and writes: the file system is the master's. What a Backend moves is
// the shuffle, the one thing a MapReduce job sends between machines:
// the partition each map task emits for each reducer — one block of the
// job's BlockCodec, the very bytes the job was charged — parked between
// the map phase and the reduce that fetches it. A job without a codec
// has no blocks, so Run refuses it on a cluster with a Backend
// (*ErrNoCodec); there is no fallback encoding.
//
// Two implementations ship with the engine: the in-process backend
// (the zero value of a cluster — no Backend at all, partitions never
// leave the heap) and Loopback, which runs the full
// encode→ship→fetch→decode cycle against in-memory storage, pinning the
// serialization seam without processes. Package mrproc adds the real
// one: worker processes holding partitions behind local sockets.
//
// The standing invariant of the whole engine carries over verbatim:
// backends may change wall-clock time and transport statistics, never
// output bytes. The conformance suite (internal/mr/conformance) holds
// every implementation to it — golden traces, the fault matrix, and
// factor matrices must be bit-identical to the in-process engine.
//
// Error semantics: partitions exist only in the backend once shipped,
// so ShipPartitions/FetchPartitions errors fail the job, exactly as a
// real cluster fails a job whose map outputs become unreachable.
//
// The shuffle plane moves windows, not single partitions, so that an
// implementation can pipeline a window's transfers instead of paying a
// round trip per partition. The engine bounds what a window holds: one
// map task's non-empty per-reducer blocks on ship, one reducer's
// non-empty blocks on fetch — never a whole job's.
type Backend interface {
	// Name identifies the backend in reports ("loopback", "proc").
	Name() string
	// ShipPartitions stores one window of encoded shuffle partitions,
	// blocks[i] under keys[i]. The blocks are lent for the call only —
	// they alias a pooled slab the engine reuses on return — so an
	// implementation that keeps them copies them.
	ShipPartitions(keys []PartKey, blocks [][]byte) error
	// FetchPartitions reads one window of previously shipped partitions
	// and hands each to visit exactly once, sequentially, in no promised
	// order: visit(i, data) receives the bytes shipped under keys[i], or
	// nil when nothing was. data is lent for that visit only. The first
	// visit error ends the window and is returned.
	FetchPartitions(keys []PartKey, visit func(i int, data []byte) error) error
	// ReleaseJob frees every partition of the named job run.
	ReleaseJob(job string, seq int64) error
	// Close releases the backend's resources (for mrproc: drains and
	// stops the worker processes). The backend must not be used after.
	Close() error
}

// PartKey identifies one map task's shuffle output for one reducer
// within one job run. Seq is the cluster's job sequence number, which
// distinguishes reruns of same-named jobs.
type PartKey struct {
	Job     string
	Seq     int64
	Task    int
	Reducer int
}

// --- Loopback ----------------------------------------------------------

// Loopback is a Backend that stores shipped partitions in process
// memory. It exists to pin the serialization seam: with Loopback
// installed the engine runs the exact shuffle path of a multi-process
// backend — every partition is encoded, shipped, fetched, and decoded —
// without sockets or subprocesses. The conformance suite runs it as the
// bridge case between the in-process engine and mrproc.
type Loopback struct {
	mu    sync.Mutex
	parts map[PartKey][]byte
}

// NewLoopback returns an empty loopback backend.
func NewLoopback() *Loopback { return &Loopback{parts: make(map[PartKey][]byte)} }

func (l *Loopback) Name() string { return "loopback" }

func (l *Loopback) ShipPartitions(keys []PartKey, blocks [][]byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, k := range keys {
		l.parts[k] = bytes.Clone(blocks[i])
	}
	return nil
}

func (l *Loopback) FetchPartitions(keys []PartKey, visit func(i int, data []byte) error) error {
	for i, k := range keys {
		l.mu.Lock()
		data := l.parts[k]
		l.mu.Unlock()
		if err := visit(i, data); err != nil {
			return err
		}
	}
	return nil
}

func (l *Loopback) ReleaseJob(job string, seq int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for k := range l.parts {
		if k.Job == job && k.Seq == seq {
			delete(l.parts, k)
		}
	}
	return nil
}

func (l *Loopback) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.parts = make(map[PartKey][]byte)
	return nil
}

// --- cluster wiring ----------------------------------------------------

// SetBackend installs (or with nil removes) the cluster's shuffle
// backend. Jobs started from now on ship their partitions through it;
// their inputs and outputs stay in the cluster's DFS either way.
func (c *Cluster) SetBackend(b Backend) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.backend = b
}

// Backend returns the installed backend, or nil for the in-process
// engine.
func (c *Cluster) Backend() Backend {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.backend
}

// --- shuffle plane -----------------------------------------------------

// shipTask is one ship window: map task key.Task's non-empty segments,
// each one block of the job's codec, appended back to back into one
// pooled slab of exactly the bytes the task was charged, which is lent
// to the backend and reclaimed on return. The task's slab goes back to
// the pool: shipped or not, the task's map output is the engine's no
// longer.
func shipTask[K comparable, V any](rb Backend, codec *BlockCodec[K, V], key PartKey, out *mapOut[K, V]) error {
	defer out.release()
	slab := getSlice[byte](int(out.bytes))
	keys := make([]PartKey, 0, len(out.segs))
	blocks := make([][]byte, 0, len(out.segs))
	for r, seg := range out.segs {
		if len(seg) > 0 {
			lo := len(slab)
			slab = codec.Append(slab, seg)
			key.Reducer = r
			keys, blocks = append(keys, key), append(blocks, slab[lo:len(slab):len(slab)])
		}
	}
	var err error
	if len(keys) > 0 {
		err = rb.ShipPartitions(keys, blocks)
	}
	putSlice(slab)
	return err
}

// fetchReducer is one fetch window: the partitions of reducer
// key.Reducer that the map phase counted as non-empty (counts is
// task-major, reducers wide), decoded straight into one pooled slab of
// the reducer's exact input size with buckets[task] its segments,
// carved in task order as a map task's are; each pair's routing hash is
// recomputed with part, which Job.Partition's contract makes the value
// emit stored. The caller returns the slab. The bytes come from outside
// the process: anything but exactly one well-formed block of the
// segment's record count is an error. Nothing is fetched for an empty
// segment, and a reducer with no input performs no fetch at all.
func fetchReducer[K comparable, V any](rb Backend, codec *BlockCodec[K, V], part func(K) uint64, key PartKey, counts []int, reducers int, buckets [][]Pair[K, V]) ([]Pair[K, V], error) {
	var keys []PartKey
	total := 0
	for i := range buckets {
		if counts[i*reducers+key.Reducer] > 0 {
			key.Task = i
			keys = append(keys, key)
			total += counts[i*reducers+key.Reducer]
		}
	}
	if len(keys) == 0 {
		return nil, nil
	}
	slab := getSlice[Pair[K, V]](total)
	lo := 0
	for _, k := range keys {
		hi := lo + counts[k.Task*reducers+k.Reducer]
		buckets[k.Task], lo = slab[lo:lo:hi], hi
	}
	err := rb.FetchPartitions(keys, func(j int, data []byte) error {
		k, want := keys[j], cap(buckets[keys[j].Task])
		seg, rest, err := []Pair[K, V](nil), []byte(nil), errors.New("lost by the backend")
		if data != nil {
			seg, rest, err = codec.Decode(data, buckets[k.Task])
		}
		if err == nil && (len(seg) != want || len(rest) != 0) {
			err = fmt.Errorf("%d records and %d trailing bytes, want %d records", len(seg), len(rest), want)
		}
		if err != nil {
			return fmt.Errorf("partition task %d reducer %d: %w", k.Task, k.Reducer, err)
		}
		for i := range seg {
			seg[i].h = part(seg[i].K)
		}
		buckets[k.Task] = seg
		return nil
	})
	if err != nil {
		putSlice(slab[:total]) // the decoded prefix is unknown: clear it all
		clear(buckets)
		return nil, err
	}
	return slab[:total], nil
}

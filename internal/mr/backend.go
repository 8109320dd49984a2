package mr

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"

	"github.com/haten2/haten2/internal/mr/wire"
)

// Backend is the engine's pluggable data plane. A job's computation —
// the map and reduce closures — always runs in the engine's
// process (closures cannot cross a process boundary), but everything
// the computation consumes and produces as *data* can be routed
// elsewhere: the shuffle partitions each map task emits for each
// reducer, and the DFS blocks jobs read as input and drivers write
// between jobs. A Backend moves those bytes.
//
// Two implementations ship with the engine: the in-process backend
// (the zero value of a cluster — no Backend at all, data never leaves
// the heap) and Loopback, which runs the full encode→ship→fetch→decode
// cycle against in-memory storage, pinning the serialization seam
// without processes. Package mrproc adds the real one: worker
// processes serving partitions and blocks over local sockets.
//
// The standing invariant of the whole engine carries over verbatim:
// backends may change wall-clock time and transport statistics, never
// output bytes. The conformance suite (internal/mr/conformance) holds
// every implementation to it — golden traces, the fault matrix, and
// factor matrices must be bit-identical to the in-process engine.
//
// Error semantics: ShipFile/FetchFile are best-effort mirrors — a
// file that cannot be fetched (never shipped, a record type without a
// FileCodec, a worker lost beyond replication) makes the engine fall
// back to its in-process read of the same records, so file-plane
// failures degrade throughput, never correctness. The shuffle plane is
// authoritative: partitions exist only in the backend once shipped, so
// ShipPartitions/FetchPartitions errors fail the job, exactly as a real
// cluster fails a job whose map outputs become unreachable.
//
// The shuffle plane moves windows, not single partitions, so that an
// implementation can pipeline a window's transfers instead of paying a
// round trip per partition. The engine bounds what a window holds: one
// map task's non-empty per-reducer blocks on ship, one reducer's
// non-empty blocks on fetch — never a whole job's.
type Backend interface {
	// Name identifies the backend in reports ("local", "loopback",
	// "proc").
	Name() string
	// InProcess reports that the data plane lives in engine memory, in
	// which case the engine skips the encode/ship cycle entirely and
	// runs its zero-copy fast path.
	InProcess() bool
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
	// ShipFile mirrors the encoded content of a published DFS file,
	// replacing any earlier copy of the same name. data is lent for the
	// call only, as ShipPartitions' blocks are: the engine reuses it on
	// return, so an implementation that keeps it copies it.
	ShipFile(name string, data []byte) error
	// FetchFile returns the encoded content of a mirrored file.
	FetchFile(name string) ([]byte, error)
	// DropFile removes a mirrored file. Dropping an absent file is a
	// no-op.
	DropFile(name string) error
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

// ErrNoRemoteFile reports a fetch of a file the backend does not
// mirror; the engine falls back to the in-process read path.
type ErrNoRemoteFile struct{ Name string }

func (e *ErrNoRemoteFile) Error() string {
	return fmt.Sprintf("mr: file %q is not mirrored by the backend", e.Name)
}

// --- Loopback ----------------------------------------------------------

// Loopback is a Backend that stores shipped bytes in process memory.
// It exists to pin the serialization seam: with Loopback installed the
// engine runs the exact code path of a multi-process backend — every
// shuffle partition, and every job input whose record type has a
// FileCodec, is encoded, shipped, fetched, and decoded — without
// sockets or subprocesses. The conformance suite
// runs it as the bridge case between the in-process engine and mrproc.
type Loopback struct {
	mu    sync.Mutex
	parts map[PartKey][]byte
	files map[string][]byte
}

// NewLoopback returns an empty loopback backend.
func NewLoopback() *Loopback {
	return &Loopback{parts: make(map[PartKey][]byte), files: make(map[string][]byte)}
}

func (l *Loopback) Name() string    { return "loopback" }
func (l *Loopback) InProcess() bool { return false }

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

func (l *Loopback) ShipFile(name string, data []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.files[name] = bytes.Clone(data)
	return nil
}

func (l *Loopback) FetchFile(name string) ([]byte, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	data, ok := l.files[name]
	if !ok {
		return nil, &ErrNoRemoteFile{Name: name}
	}
	return data, nil
}

func (l *Loopback) DropFile(name string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.files, name)
	return nil
}

func (l *Loopback) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.parts, l.files = make(map[PartKey][]byte), make(map[string][]byte)
	return nil
}

// --- cluster wiring ----------------------------------------------------

// SetBackend installs (or with nil removes) the cluster's execution
// backend and, for an out-of-process backend, wires the DFS's remote
// mirror hook to it so every file published from now on is shipped.
// Install the backend before staging data: files published earlier are
// not mirrored (the engine falls back to in-process reads for them).
func (c *Cluster) SetBackend(b Backend) {
	c.mu.Lock()
	c.backend = b
	c.mu.Unlock()
	if b != nil && !b.InProcess() {
		c.fs.SetRemote(&remoteAdapter{b: b})
	} else {
		c.fs.SetRemote(nil)
	}
}

// Backend returns the installed backend, or nil for the in-process
// engine.
func (c *Cluster) Backend() Backend {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.backend
}

// remote returns the backend when it routes data out of the engine's
// heap, nil otherwise — the single switch the engine's data-plane
// code branches on.
func (c *Cluster) remote() Backend {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.backend != nil && !c.backend.InProcess() {
		return c.backend
	}
	return nil
}

// FileCodec is a record type's file codec: how a DFS file of R records
// crosses an out-of-process backend — as one block — and comes back. A
// record type provides it as methods on R itself, and the engine finds
// them on the zero R of a file's []R payload; there is no registry. recs
// is always a []R: FileBlockSize is the exact length AppendFileBlock
// appends, and DecodeFileBlock parses one block, returning the trailing
// bytes. A file whose record type has no FileCodec is not mirrored, and
// jobs read it in process.
type FileCodec interface {
	FileBlockSize(recs any) int64
	AppendFileBlock(dst []byte, recs any) []byte
	DecodeFileBlock(src []byte) (recs any, rest []byte, err error)
}

// fileCodec returns the FileCodec of a file payload's record type.
func fileCodec(payload any) (FileCodec, bool) {
	if payload == nil {
		return nil, false
	}
	codec, ok := reflect.Zero(reflect.TypeOf(payload).Elem()).Interface().(FileCodec)
	return codec, ok
}

// remoteAdapter bridges the DFS's publish/delete hooks to a Backend: a
// published file is encoded as its record type's block, into a pooled
// slab of exactly the block's size that is lent to ShipFile and
// reclaimed on return. Files without a FileCodec (or whose ship fails)
// are simply not mirrored, and reads of them fall back in process.
type remoteAdapter struct{ b Backend }

func (a *remoteAdapter) Ship(name string, payload any, _ int) {
	codec, ok := fileCodec(payload)
	if !ok {
		return
	}
	buf := codec.AppendFileBlock(getSlice[byte](int(codec.FileBlockSize(payload))), payload)
	//haten2:allow errcheck-io best-effort mirror: a failed ship leaves the file unmirrored and reads fall back in-process
	_ = a.b.ShipFile(name, buf)
	putSlice(buf)
}

func (a *remoteAdapter) Drop(name string) {
	//haten2:allow errcheck-io best-effort mirror: dropping an absent remote copy is harmless
	_ = a.b.DropFile(name)
}

// fetchTyped fetches the mirrored block of a file and decodes it to the
// records of the in-process payload it shadows. ok is false when the
// record type has no FileCodec, the backend does not mirror the file, or
// the fetched bytes are not exactly one block of want records, in which
// case the caller uses the in-process payload.
func fetchTyped(b Backend, name string, local any, want int) (payload any, ok bool) {
	codec, ok := fileCodec(local)
	if !ok {
		return nil, false
	}
	data, err := b.FetchFile(name)
	if err != nil {
		return nil, false
	}
	decoded, rest, err := codec.DecodeFileBlock(data)
	if err != nil || len(rest) != 0 || reflect.ValueOf(decoded).Len() != want {
		return nil, false
	}
	return decoded, true
}

// --- shuffle plane -----------------------------------------------------

// partCodec turns one (map task, reducer) bucket into the bytes that
// cross the backend seam and back. A job with a block codec ships the
// very block it was charged for, encoded once; the routing hash is not
// part of that block, so decode recomputes it with the job's partition
// function (pure in the key by Job.Partition's contract, hence the same
// value emit stored). Any other job falls back to the wire codec over
// the pairs themselves, hash included.
type partCodec[K comparable, V any] struct {
	sizer *BlockSizer[K, V]
	part  func(K) uint64
}

func (pc partCodec[K, V]) blocks() bool { return pc.sizer.Append != nil }

func (pc partCodec[K, V]) encode(dst []byte, bucket []pair[K, V]) ([]byte, error) {
	if !pc.blocks() {
		data, err := wire.EncodeSlice(bucket)
		return append(dst, data...), err
	}
	keys, vals := getSlice[K](len(bucket)), getSlice[V](len(bucket))
	for _, p := range bucket {
		keys, vals = append(keys, p.k), append(vals, p.v)
	}
	dst = pc.sizer.Append(dst, keys, vals)
	putSlice(keys)
	putSlice(vals)
	return dst, nil
}

// decode parses a fetched partition into dst, an empty segment whose
// capacity is the record count shipTask recorded. The bytes come from
// outside the process: anything but exactly one well-formed block of
// that length is an error.
func (pc partCodec[K, V]) decode(data []byte, dst []pair[K, V]) ([]pair[K, V], error) {
	want := cap(dst)
	if !pc.blocks() {
		dec, err := wire.DecodeSlice(reflect.TypeFor[pair[K, V]](), data)
		bucket, _ := dec.([]pair[K, V])
		if err == nil && len(bucket) != want {
			err = fmt.Errorf("%d records, want %d", len(bucket), want)
		}
		return append(dst, bucket...), err
	}
	keys, vals, rest, err := pc.sizer.Decode(data, getSlice[K](want), getSlice[V](want))
	if err == nil && (len(keys) != want || len(rest) != 0) {
		err = fmt.Errorf("%d records and %d trailing bytes, want %d records", len(keys), len(rest), want)
	}
	if err == nil {
		for i, k := range keys {
			dst = append(dst, pair[K, V]{k: k, v: vals[i], h: pc.part(k)})
		}
	}
	putSlice(keys)
	putSlice(vals)
	return dst, err
}

// shipTask is one ship window: map task key.Task's non-empty segments,
// encoded back to back into one pooled slab that is lent to the backend
// and reclaimed on return. The task's slab goes back to the pool:
// shipped or not, the task's map output is the engine's no longer.
func shipTask[K comparable, V any](rb Backend, pc partCodec[K, V], key PartKey, out *mapOut[K, V]) error {
	defer out.release()
	slab := getSlice[byte](int(out.bytes)) // what the task was charged: exact for a block codec
	keys := make([]PartKey, 0, len(out.segs))
	ends := make([]int, 0, len(out.segs))
	var err error
	for r, bucket := range out.segs {
		if len(bucket) > 0 && err == nil {
			slab, err = pc.encode(slab, bucket)
			key.Reducer = r
			keys, ends = append(keys, key), append(ends, len(slab))
		}
	}
	if err == nil && len(keys) > 0 {
		blocks := make([][]byte, len(keys))
		lo := 0
		for i, hi := range ends {
			blocks[i], lo = slab[lo:hi:hi], hi
		}
		err = rb.ShipPartitions(keys, blocks)
	}
	putSlice(slab)
	return err
}

// fetchReducer is one fetch window: the partitions of reducer
// key.Reducer that the map phase counted as non-empty (counts is
// task-major, reducers wide), decoded into one pooled slab of the
// reducer's exact input size with buckets[task] its segments, carved in
// task order as a map task's are. The caller returns the slab. Nothing
// is fetched for an empty segment, and a reducer with no input performs
// no fetch at all.
func fetchReducer[K comparable, V any](rb Backend, pc partCodec[K, V], key PartKey, counts []int, reducers int, buckets [][]pair[K, V]) ([]pair[K, V], error) {
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
	slab := getSlice[pair[K, V]](total)
	lo := 0
	for _, k := range keys {
		hi := lo + counts[k.Task*reducers+k.Reducer]
		buckets[k.Task], lo = slab[lo:lo:hi], hi
	}
	err := rb.FetchPartitions(keys, func(j int, data []byte) (err error) {
		k := keys[j]
		if data == nil {
			err = errors.New("lost by the backend")
		} else {
			buckets[k.Task], err = pc.decode(data, buckets[k.Task])
		}
		if err != nil {
			err = fmt.Errorf("partition task %d reducer %d: %w", k.Task, k.Reducer, err)
		}
		return err
	})
	if err != nil {
		putSlice(slab[:total]) // the decoded prefix is unknown: clear it all
		clear(buckets)
		return nil, err
	}
	return slab[:total], nil
}

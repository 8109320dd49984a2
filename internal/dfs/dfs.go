// Package dfs simulates the distributed file system (HDFS) that HaTen2's
// MapReduce jobs stage their input and output through.
//
// Every file a plan touches is a homogeneous record file — tensor
// entries, factor cells, the intermediates of Tables III/IV — so a file
// has one representation: a single typed block, the []T slice its writer
// handed to AppendBlock, kept in memory as written and lent back
// verbatim by BlockView. The simulator never serializes the payload; the
// writer states what it would occupy on disk, and the file system does
// the bookkeeping a real HDFS would: those bytes are cut into fixed-size
// DFS blocks, every block is checksummed and charged once per replica,
// and every job that reads a file is charged for all of its bytes again.
// This makes the paper's third optimization axis — "minimize disk
// accesses" by reading the input tensor once instead of twice
// (§III-B4) — directly observable in Stats.
package dfs

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
)

// Options configures a simulated file system.
type Options struct {
	// BlockSize is the HDFS block size in bytes. Defaults to 64 MiB,
	// Hadoop 1.x's default (the paper's era).
	BlockSize int64
	// Replication is the number of replicas written per block. Defaults
	// to 3, HDFS's default.
	Replication int
	// Machines is the number of simulated datanodes replicas are placed
	// across. Defaults to Replication, the smallest cluster on which
	// every block can keep fully distinct copies.
	Machines int
}

// Stats aggregates the I/O the file system has performed.
type Stats struct {
	BytesWritten   int64 // logical bytes written (before replication)
	BytesReplWrite int64 // physical bytes written including replication
	BytesRead      int64
	RecordsWritten int64
	RecordsRead    int64
	BlocksWritten  int64 // logical blocks
	FilesCreated   int64
	FilesDeleted   int64
	FilesAborted   int64 // staged files discarded before publication

	// Storage-failure accounting (see storage.go). Faults move these
	// counters and simulated time only — never the bytes a reader sees.
	CorruptBlocks  int64 // replica copies whose checksum verification failed
	LostReplicas   int64 // replica copies missing at read/scrub time
	FailoverReads  int64 // reads retried on the next replica after a bad copy
	FailoverBytes  int64 // bytes re-read from further replicas during failover
	ReReplications int64 // replica copies restored to reach the target factor
	ScrubBytes     int64 // bytes copied while re-replicating bad copies
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.BytesWritten += other.BytesWritten
	s.BytesReplWrite += other.BytesReplWrite
	s.BytesRead += other.BytesRead
	s.RecordsWritten += other.RecordsWritten
	s.RecordsRead += other.RecordsRead
	s.BlocksWritten += other.BlocksWritten
	s.FilesCreated += other.FilesCreated
	s.FilesDeleted += other.FilesDeleted
	s.FilesAborted += other.FilesAborted
	s.CorruptBlocks += other.CorruptBlocks
	s.LostReplicas += other.LostReplicas
	s.FailoverReads += other.FailoverReads
	s.FailoverBytes += other.FailoverBytes
	s.ReReplications += other.ReReplications
	s.ScrubBytes += other.ScrubBytes
}

type file struct {
	// typed is the file's payload: the []T slice AppendBlock stored, as
	// written. nil while (and if) the file holds no block.
	typed any
	count int
	bytes int64

	// digest is the running splitmix64 fold over the file's write
	// pattern; sums snapshots it once per completed block (plus the
	// trailing partial block at Close), giving each block a checksum
	// computed incrementally at append time — the zero-copy BlockView
	// path verifies against these before lending the payload out.
	digest uint64
	sums   []uint64
	// repl is the replication factor the file was published with.
	repl int
	// healed and detected track per-replica-copy state, indexed
	// block*repl+replica and allocated lazily on the first storage
	// fault. healed marks copies restored by read-repair or Scrub
	// (they verify clean from then on); detected memoizes bad copies
	// so each is counted in Stats exactly once no matter how many
	// times a doomed block is re-read.
	healed   []bool
	detected []bool
}

// fold mixes one append event into the running digest and snapshots a
// checksum for every block the write completed. Called with fs.mu held,
// after f.bytes has been advanced.
func (f *file) fold(evt uint64, blockSize int64) {
	f.digest = storageMix(f.digest ^ storageMix(evt+0x9e3779b97f4a7c15))
	for int64(len(f.sums)) < f.bytes/blockSize {
		f.sums = append(f.sums, f.digest)
	}
}

// blockSpan returns the logical bytes stored in block b.
func (f *file) blockSpan(b int, blockSize int64) int64 {
	if int64(b+1)*blockSize <= f.bytes {
		return blockSize
	}
	return f.bytes - int64(b)*blockSize
}

// FS is a simulated distributed file system. All methods are safe for
// concurrent use.
type FS struct {
	mu    sync.Mutex
	opts  Options
	files map[string]*file
	// staging holds files between Create and Close. A staged file's name
	// is reserved (a second Create fails) but the file is invisible to
	// every read-side method until Close publishes it — the atomicity a
	// real job gets from writing to a task-attempt directory and renaming
	// into place on commit.
	staging map[string]*file
	stats   Stats
	// faults is the installed storage fault plan; nil runs clean.
	faults *StorageFaults
	// remote, when non-nil, mirrors published files into an external
	// block store (see remote.go). Hooks fire outside fs.mu.
	remote Remote
}

// New returns an empty file system with the given options
// (zero fields take the documented defaults).
func New(opts Options) *FS {
	if opts.BlockSize <= 0 {
		opts.BlockSize = 64 << 20
	}
	if opts.Replication <= 0 {
		opts.Replication = 3
	}
	if opts.Machines <= 0 {
		opts.Machines = opts.Replication
	}
	return &FS{opts: opts, files: make(map[string]*file), staging: make(map[string]*file)}
}

// ErrNotExist is returned when a named file is absent.
type ErrNotExist struct{ Name string }

func (e *ErrNotExist) Error() string { return fmt.Sprintf("dfs: file %q does not exist", e.Name) }

// ErrExist is returned by Create when the file already exists.
type ErrExist struct{ Name string }

func (e *ErrExist) Error() string { return fmt.Sprintf("dfs: file %q already exists", e.Name) }

// Create makes a new empty file and returns a writer for it. Like HDFS,
// files are write-once: Create fails if the name already exists, staged
// or published. The file stays invisible — absent from BlockView, Exists,
// Size, List, and Delete — until the writer's Close publishes it
// atomically; a writer abandoned by a failed task attempt (Abort, or
// simply never closed) exposes no partial output.
func (fs *FS) Create(name string) (*Writer, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[name]; ok {
		return nil, &ErrExist{Name: name}
	}
	if _, ok := fs.staging[name]; ok {
		return nil, &ErrExist{Name: name}
	}
	f := &file{}
	fs.staging[name] = f
	fs.stats.FilesCreated++
	return &Writer{fs: fs, name: name, f: f}, nil
}

// Writer writes one file. It buffers nothing; AppendBlock is accounted
// immediately. Writers are safe for concurrent use. The file becomes
// visible only when Close commits it; Abort discards it.
type Writer struct {
	fs    *FS
	name  string
	f     *file
	state writerState // guarded by fs.mu
}

type writerState uint8

const (
	writerOpen writerState = iota
	writerClosed
	writerAborted
)

// mustBeOpen panics with a precise lifecycle message when the writer has
// already been closed or aborted. Called with fs.mu held.
func (w *Writer) mustBeOpen(op string) {
	switch w.state {
	case writerClosed:
		panic(fmt.Sprintf("dfs: %s on closed writer: file %q was already published", op, w.name))
	case writerAborted:
		panic(fmt.Sprintf("dfs: %s on aborted writer: file %q was discarded", op, w.name))
	}
}

// AppendBlock stores a file's contents as one typed block: payload must
// be a []T slice of count records charging size bytes in total. The
// payload is stored as-is and handed back verbatim by BlockView, so
// ownership transfers to the file system: the caller must not mutate
// (or return to a pool) the slice after the call. A file holds at most
// one block; a second AppendBlock, or one on a closed or aborted writer,
// panics: the commit protocol forbids mutating published files.
func (w *Writer) AppendBlock(payload any, count int, size int64) {
	w.fs.mu.Lock()
	defer w.fs.mu.Unlock()
	w.mustBeOpen("AppendBlock")
	if w.f.typed != nil {
		panic("dfs: AppendBlock on a non-empty file")
	}
	if rv := reflect.ValueOf(payload); rv.Kind() != reflect.Slice || rv.Len() != count {
		panic(fmt.Sprintf("dfs: AppendBlock payload must be a slice of %d records", count))
	}
	w.f.typed = payload
	w.f.count = count
	w.f.bytes += size
	w.f.fold(storageMix(uint64(count))^uint64(size), w.fs.opts.BlockSize)
	w.fs.stats.BytesWritten += size
	w.fs.stats.BytesReplWrite += size * int64(w.fs.opts.Replication)
	w.fs.stats.RecordsWritten += int64(count)
}

// Close atomically publishes the file, finalizes its per-block
// checksums, and charges block-level accounting. The publish happens
// exactly once: a second Close, or Close after Abort, panics — the
// commit protocol treats a double commit as task-attempt corruption.
// When a remote mirror is installed, the newly published file is
// shipped to it after the publish, outside the file-system mutex.
func (w *Writer) Close() {
	if remote := w.commit(); remote != nil {
		// The payload is frozen from publication on, so it is read here
		// without the lock.
		remote.Ship(w.name, w.f.typed, w.f.count)
	}
}

// commit performs the locked portion of Close and returns the remote
// hook to notify (nil when none is installed).
func (w *Writer) commit() Remote {
	w.fs.mu.Lock()
	defer w.fs.mu.Unlock()
	switch w.state {
	case writerClosed:
		panic(fmt.Sprintf("dfs: double Close of writer: file %q was already published", w.name))
	case writerAborted:
		panic(fmt.Sprintf("dfs: Close after Abort of writer: file %q was discarded", w.name))
	}
	w.state = writerClosed
	delete(w.fs.staging, w.name)
	w.fs.files[w.name] = w.f
	if w.f.bytes%w.fs.opts.BlockSize != 0 {
		// Checksum the trailing partial block; full blocks were
		// snapshotted as the appends crossed their boundaries.
		w.f.sums = append(w.f.sums, w.f.digest)
	}
	w.f.repl = w.fs.opts.Replication
	w.fs.stats.BlocksWritten += int64(len(w.f.sums))
	return w.fs.remote
}

// Abort discards a staged file, releasing its name. The bytes already
// appended stay charged in Stats — the physical writes happened before
// the attempt died — but no reader ever observes the partial file.
// Abort after Close (or a second Abort) is a no-op, so cleanup paths
// may abort unconditionally.
func (w *Writer) Abort() {
	w.fs.mu.Lock()
	defer w.fs.mu.Unlock()
	if w.state != writerOpen {
		return
	}
	w.state = writerAborted
	delete(w.fs.staging, w.name)
	w.fs.stats.FilesAborted++
}

// BlockView returns a file's payload — the []T slice AppendBlock
// stored — and its record count, charging one full read. Every DFS block
// is checksum-verified first, failing over across replicas; a block with
// no good replica fails the read with *ErrDataLoss. A file published
// without a block has a nil payload and no records.
//
// The payload is a borrowed view of file storage: callers must treat it
// as read-only and must not return it to a buffer pool. It stays valid
// until the file is deleted.
func (fs *FS) BlockView(name string) (payload any, count int, err error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[name]
	if !ok {
		return nil, 0, &ErrNotExist{Name: name}
	}
	// Verify against the checksums computed at AppendBlock time before
	// lending the pooled slab out; a bad block must surface here, not
	// as a silent wrong decode downstream.
	if err := fs.verifyRead(name, f); err != nil {
		return nil, 0, err
	}
	fs.stats.BytesRead += f.bytes
	fs.stats.RecordsRead += int64(f.count)
	return f.typed, f.count, nil
}

// Size returns the logical byte size of a file.
func (fs *FS) Size(name string) (int64, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[name]
	if !ok {
		return 0, &ErrNotExist{Name: name}
	}
	return f.bytes, nil
}

// Exists reports whether a file is present.
func (fs *FS) Exists(name string) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	_, ok := fs.files[name]
	return ok
}

// Delete removes a file. Deleting an absent file returns ErrNotExist.
// An installed remote mirror is told to drop its copy, outside the
// file-system mutex.
func (fs *FS) Delete(name string) error {
	fs.mu.Lock()
	if _, ok := fs.files[name]; !ok {
		fs.mu.Unlock()
		return &ErrNotExist{Name: name}
	}
	delete(fs.files, name)
	fs.stats.FilesDeleted++
	remote := fs.remote
	fs.mu.Unlock()
	if remote != nil {
		remote.Drop(name)
	}
	return nil
}

// List returns all file names in lexical order.
func (fs *FS) List() []string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	names := make([]string, 0, len(fs.files))
	for n := range fs.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Stats returns a snapshot of the accumulated I/O statistics.
func (fs *FS) Stats() Stats {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.stats
}

// ResetStats zeroes the statistics (files are kept).
func (fs *FS) ResetStats() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.stats = Stats{}
}

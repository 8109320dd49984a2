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
// DFS blocks, every block is charged once per replica, and every job
// that reads a file is charged for all of its bytes again. No payload
// byte exists to be checksummed: a corrupt or lost replica copy is a
// simulated fault (storage.go) that moves counters and time only.
// This makes the paper's third optimization axis — "minimize disk
// accesses" by reading the input tensor once instead of twice
// (§III-B4) — directly observable in Stats.
//
// A payload is lent to readers, never copied: a BlockView is valid until
// the file is deleted. Delete hands the payload back to its caller, as a
// real DFS reuses the disk blocks of a deleted file; the MapReduce
// engine files it into its buffer pools, so the next job's output is
// written into the storage the last one's deleted intermediates held.
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
	CorruptBlocks  int64 // replica copies found corrupt (a simulated checksum mismatch)
	LostReplicas   int64 // replica copies missing at read time
	FailoverReads  int64 // reads retried on the next replica after a bad copy
	FailoverBytes  int64 // bytes re-read from further replicas during failover
	ReReplications int64 // replica copies restored to reach the target factor
	ScrubBytes     int64 // bytes copied while re-replicating bad copies
}

type file struct {
	// typed is the file's payload: the []T slice AppendBlock stored, as
	// written. nil while (and if) the file holds no block.
	typed any
	count int
	bytes int64
	// blocks is the number of DFS blocks the file occupies,
	// ⌈bytes / BlockSize⌉, fixed when Close publishes it.
	blocks int
	// repl is the replication factor the file was published with.
	repl int
	// healed and detected track per-replica-copy state, indexed
	// block*repl+replica and allocated lazily on the first storage
	// fault. healed marks copies restored by read-repair (they verify
	// clean from then on); detected memoizes bad copies
	// so each is counted in Stats exactly once no matter how many
	// times a doomed block is re-read.
	healed   []bool
	detected []bool
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
	w.fs.stats.BytesWritten += size
	w.fs.stats.BytesReplWrite += size * int64(w.fs.opts.Replication)
	w.fs.stats.RecordsWritten += int64(count)
}

// Close atomically publishes the file, fixes its block count, and
// charges block-level accounting. The publish happens
// exactly once: a second Close, or Close after Abort, panics — the
// commit protocol treats a double commit as task-attempt corruption.
func (w *Writer) Close() {
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
	w.f.blocks = int((w.f.bytes + w.fs.opts.BlockSize - 1) / w.fs.opts.BlockSize)
	w.f.repl = w.fs.opts.Replication
	w.fs.stats.BlocksWritten += int64(w.f.blocks)
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
// is read from its first good replica under the installed fault plan,
// failing over past bad copies; a block with no good replica fails the
// read with *ErrDataLoss. A file published
// without a block has a nil payload and no records.
//
// The payload is a borrowed view of file storage: callers must treat it
// as read-only and must not return it to a buffer pool. It stays valid
// until the file is deleted, when Delete hands the storage to its
// caller for reuse.
func (fs *FS) BlockView(name string) (payload any, count int, err error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[name]
	if !ok {
		return nil, 0, &ErrNotExist{Name: name}
	}
	// A block with no good replica must fail the read here, before the
	// payload is lent out.
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

// Delete removes a published file and hands its payload — the []T
// slice AppendBlock stored, nil for a file published without a block —
// back to the caller, who owns it from then on: every view BlockView
// lent of the file is invalid, and the caller may reuse the storage.
// Deleting an absent file, or a staged or aborted one, returns
// ErrNotExist and hands back nothing.
func (fs *FS) Delete(name string) (payload any, err error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[name]
	if !ok {
		return nil, &ErrNotExist{Name: name}
	}
	delete(fs.files, name)
	fs.stats.FilesDeleted++
	return f.typed, nil
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

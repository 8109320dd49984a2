package mr

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/haten2/haten2/internal/dfs"
)

// Input binds one DFS file to the map function that processes its
// records, mirroring Hadoop's MultipleInputs: a job may read several
// files with different record types feeding one shuffle. This is how
// HaTen2's IMHP job reads the tensor and both factor matrices at once.
// MapInput is the only way to build one.
type Input[K comparable, V any] struct {
	// File is the DFS file to read.
	File string
	// run maps records lo..hi of the file's typed payload (a []R borrowed
	// from the DFS): one type assertion per split, none per record.
	run func(payload any, lo, hi int, emit func(K, V))
}

// MapInput binds a DFS file of R records to a typed map function, called
// once per record; it may emit any number of intermediate key/value
// pairs. Records flow to m straight from the file's []R payload.
func MapInput[R any, K comparable, V any](file string, m func(R, func(K, V))) Input[K, V] {
	return Input[K, V]{
		File: file,
		run: func(payload any, lo, hi int, emit func(K, V)) {
			for _, r := range payload.([]R)[lo:hi] {
				m(r, emit)
			}
		},
	}
}

// BlockSizer is a job's shuffle block codec. Pair and Header account the
// encoded size of one partition block incrementally, so the engine can
// charge real columnar-codec bytes at emit time without materializing
// the block: Pair returns the bytes record (k, v) adds to a block whose
// previous record is (prevK, prevV); the first record of a block is
// sized against zero-valued prev (delta-from-zero, exactly what the
// codec writes). Header returns the block header size for a block of
// n > 0 records. A partition block's total size is Header(n) + the sum
// of its n Pair calls.
//
// Append and Decode are the encoder and decoder those sizes describe,
// and what crosses the seam when a Backend owns the shuffle: Append
// appends the block of the parallel keys/vals to dst — exactly
// Header(n) + ΣPair bytes, which the columnar invariant tests in
// internal/core and the conformance suite pin — and Decode parses one
// block into the storage of the keys/vals it is handed, returning the
// trailing bytes. The in-process engine never calls either. A sizer
// without them sends its job down the wire-codec fallback, as a job
// without BlockKV goes.
type BlockSizer[K comparable, V any] struct {
	Pair   func(prevK K, prevV V, k K, v V) int64
	Header func(n int) int64
	Append func(dst []byte, keys []K, vals []V) []byte
	Decode func(src []byte, keys []K, vals []V) ([]K, []V, []byte, error)
}

// Job describes one MapReduce job. It runs one reduce task per worker
// slot of the cluster, and its reduce output is one part per file of
// Outputs (one part when there are none).
type Job[K comparable, V any, O any] struct {
	// Name labels the job in statistics.
	Name string
	// Inputs are the files and map functions; at least one is required.
	Inputs []Input[K, V]
	// Reduce is called once per distinct key with all of its values.
	// The values slice aliases a pooled arena owned by the engine and is
	// only valid for the duration of the call (Hadoop's contract: the
	// reduce iterator cannot be kept); copy values out to retain them.
	Reduce func(key K, values []V, emit func(O))
	// Partition routes a key to a reducer as Partition(k) % reducers.
	// It is required; use the Hash* helpers for common key shapes. It
	// must be a pure function of the key: the engine calls it once per
	// pair to route the shuffle and again in the reduce-side grouper,
	// and the two calls must agree.
	Partition func(K) uint64
	// BlockKV is the job's shuffle codec: each map task's per-reducer
	// bucket is charged as one contiguous encoded block (header plus
	// delta-encoded records), mirroring how a real Hadoop job compresses
	// each map task's spill per partition. Counters, resource limits and
	// simulated time then reflect the codec's real wire size. Nil means
	// 24 bytes per pair and no header.
	BlockKV *BlockSizer[K, V]
	// OutSize reports the serialized size of one output record. Nil
	// means 24 bytes.
	OutSize func(O) int64
	// Outputs, when non-empty, writes the job's output records to DFS
	// files (the between-jobs materialization Tables III/IV bound), one
	// part per file: each part's slab becomes its file's block uncopied.
	// Two or more are Hadoop's MultipleOutputs, with which HaTen2's IMHP
	// job writes 𝒯′ and 𝒯″: the records a reducer emits for key k go to
	// part OutputPart(k).
	Outputs []string
	// OutputPart names the part of Outputs a key's records go to. It is
	// required with two or more Outputs and an error with fewer.
	OutputPart func(K) int
	// ExtraShuffleRecords and ExtraShuffleBytes charge additional
	// intermediate data that a faithful implementation would have
	// shuffled but that the simulator elides for tractability. HaTen2's
	// Naive plan uses this: the paper's mapper copies the factor vector
	// to *every* (i,k) fiber key — I·K copies, nnz+IJK intermediate
	// records — while the simulator only materializes copies for fibers
	// that exist, charging the rest here. The charge counts toward
	// simulated time and the resource-exhaustion limit, so Naive fails
	// exactly where the paper's does.
	ExtraShuffleRecords int64
	ExtraShuffleBytes   int64
}

type pair[K comparable, V any] struct {
	k K
	v V
	// h carries the raw partition hash from emit into the reducer's
	// group table (group.go), whose count pass pushes it through the
	// mix64 finalizer and probes on that (the raw hash's bits correlate
	// with the routing mask, so probing needs the extra mix — but no
	// generic re-hash of the key); count then overwrites h with the
	// key's slot so the scatter pass does no hashing at all.
	h uint64
}

// mapOut is one map task's output: a single pooled slab holding exactly
// the pairs the task emitted, carved into one contiguous segment per
// reducer, and the shuffle bytes the task was charged. Only slab itself
// ever goes back to the pool, whole and once.
type mapOut[K comparable, V any] struct {
	slab  []pair[K, V]
	segs  [][]pair[K, V]
	bytes int64
}

func (o *mapOut[K, V]) release() {
	putSlice(o.slab)
	o.slab, o.segs = nil, nil
}

// split is one map task: records lo..hi of an input's payload.
type split[K comparable, V any] struct {
	run     func(payload any, lo, hi int, emit func(K, V))
	payload any
	lo, hi  int
}

// mapWorker is a map pool worker's emit buffer, reused by its next task,
// and next, per reducer the task's pair count, then its segment cursor.
type mapWorker[K comparable, V any] struct {
	buf  []pair[K, V]
	next []int
}

// run is one Run call: the job, where it runs, and what each phase hands
// the next, from splitInputs to commit in the order Run calls them.
type run[K comparable, V any, O any] struct {
	c    *Cluster
	job  Job[K, V, O]
	plan *FaultPlan
	seq  int64
	// rb is non-nil when an out-of-process backend owns the data plane:
	// inputs are fetched from it when mirrored, and the shuffle always
	// round-trips through it (ship after map, fetch inside reduce).
	rb                     Backend
	st                     JobStats
	reducers, nparts, pool int
	route                  func(h uint64) uint64
	codec                  partCodec[K, V] // the job's charge function and shuffle codec

	tasks []split[K, V] // splitInputs → mapTasks
	// mapTasks → reduce: each task's output, and counts, task-major, the
	// records of every (task, reducer) segment, which outlive the slabs.
	outs     []mapOut[K, V]
	counts   []int
	shipErrs []error
	fstate   *faultState // mapFaults → reduceFaults

	// reduce → commit: results[r·nparts+p] holds reducer r's part-p
	// records and resultBytes their size; fed, made and los are outBufs'.
	results                           [][]O
	resultBytes, redInputs, fed, made []int64
	los                               []int
	fetchErrs, partErrs               []error
}

// Run executes the job on the cluster and returns part 0 of its reduce
// output in deterministic order along with the job's statistics. For a
// job without Outputs the records are the caller's, who may Recycle
// them; otherwise they are a read-only view of the first file's block,
// which the DFS owns. It returns ErrResourceExhausted if the shuffle
// exceeds the cluster's configured capacity, emulating the
// out-of-memory failures of Figures 1 and 7.
func Run[K comparable, V any, O any](c *Cluster, job Job[K, V, O]) ([]O, JobStats, error) {
	if len(job.Inputs) == 0 {
		return nil, JobStats{}, fmt.Errorf("mr: job %q has no inputs", job.Name)
	}
	if job.Reduce == nil {
		return nil, JobStats{}, fmt.Errorf("mr: job %q has no reduce function", job.Name)
	}
	if job.Partition == nil {
		return nil, JobStats{}, fmt.Errorf("mr: job %q has no partition function", job.Name)
	}
	for _, in := range job.Inputs {
		if in.run == nil {
			return nil, JobStats{}, fmt.Errorf("mr: job %q: input %q was not built by MapInput", job.Name, in.File)
		}
	}
	if (job.OutputPart != nil) != (len(job.Outputs) > 1) {
		return nil, JobStats{}, fmt.Errorf("mr: job %q: OutputPart goes with two or more Outputs, got %d", job.Name, len(job.Outputs))
	}
	plan, seq, err := c.startJob(job.Name)
	if err != nil {
		return nil, JobStats{Name: job.Name}, err
	}
	r := newRun(c, job, plan, seq)
	if err := r.splitInputs(); err != nil {
		return nil, r.st, fmt.Errorf("mr: job %q: %w", job.Name, err)
	}
	if err := r.mapTasks(); err != nil {
		return r.fail(err)
	}
	if err := r.mapFaults(); err != nil {
		return r.fail(err)
	}
	if err := r.reduce(); err != nil {
		return r.fail(err)
	}
	if err := r.reduceFaults(); err != nil {
		return r.fail(err)
	}
	if err := r.commit(); err != nil {
		return r.fail(err)
	}
	r.finish()
	return r.results[0], r.st, nil
}

// newRun readies one job's run state on c.
func newRun[K comparable, V any, O any](c *Cluster, job Job[K, V, O], plan *FaultPlan, seq int64) *run[K, V, O] {
	reducers := c.Workers()
	r := &run[K, V, O]{
		c: c, job: job, plan: plan, seq: seq, rb: c.remote(),
		st:       JobStats{Name: job.Name, ReduceTasks: reducers},
		reducers: reducers, nparts: max(len(job.Outputs), 1), pool: min(runtime.GOMAXPROCS(0), reducers),
		codec: partCodec[K, V]{sizer: job.BlockKV, part: job.Partition},
	}
	// Reducer routing is Partition(k) % reducers by contract; when the
	// worker count is a power of two (the common cluster shape) the
	// modulo reduces to a mask with bit-identical routing.
	n, pow2 := uint64(reducers), reducers&(reducers-1) == 0
	r.route = func(h uint64) uint64 {
		if pow2 {
			return h & (n - 1)
		}
		return h % n
	}
	// The sizer is the job's one charge function. With a block codec,
	// each non-empty (task, reducer) segment is one block, the spill a
	// real job would ship: Header once plus consecutive-pair deltas, the
	// first pair sized against zero values. Without one, a flat 24 bytes
	// is a headerless codec whose pairs ignore their predecessor.
	if r.codec.sizer == nil {
		r.codec.sizer = &BlockSizer[K, V]{Pair: func(K, V, K, V) int64 { return 24 }, Header: func(int) int64 { return 0 }}
	}
	return r
}

// splitInputs cuts every input into one split per worker, each a map
// task reading a borrowed sub-range of the file's []R payload. It
// charges the job the DFS storage faults its own reads caused:
// attribution assumes jobs run sequentially (the same contract the
// fault plan's job sequence documents); concurrent Run callers get
// scheduling-dependent attribution but exact cluster-level totals.
func (r *run[K, V, O]) splitInputs() error {
	fs := r.c.fs
	storageOn := r.plan != nil && (r.plan.BlockCorruptRate > 0 || r.plan.ReplicaLossRate > 0)
	var base dfs.Stats
	if storageOn {
		base = fs.Stats()
	}
	for _, in := range r.job.Inputs {
		payload, nrec, err := fs.BlockView(in.File)
		if err != nil {
			return err
		}
		bounds := splitBounds(nrec, r.reducers)
		// Out-of-process backend: substitute the mirrored copy of the
		// input for the in-process payload when the backend serves one.
		// The local BlockView above still ran — splits, DFS charges, and
		// storage-fault detection are its, so counters stay byte-identical
		// across backends — but the records the map tasks consume are the
		// decoded remote bytes. A miss (unmirrored file, decode failure)
		// keeps the in-process copy: the file plane degrades to local,
		// never to wrong.
		if r.rb != nil && payload != nil {
			if dec, ok := fetchTyped(r.rb, in.File, payload, nrec); ok {
				payload = dec
			}
		}
		r.st.InputRecords += int64(nrec)
		sz, err := fs.Size(in.File)
		if err != nil {
			return err
		}
		r.st.InputBytes += sz
		for s := 0; s < len(bounds)-1; s++ {
			if lo, hi := bounds[s], bounds[s+1]; lo < hi {
				r.tasks = append(r.tasks, split[K, V]{run: in.run, payload: payload, lo: lo, hi: hi})
			}
		}
	}
	r.st.MapTasks = len(r.tasks)
	if storageOn {
		// The input reads above crossed any bad replica copies, failed
		// over past them and re-replicated inside the DFS. Like the task
		// fault pass, the deltas — and the simulated time of the extra
		// I/O — move time and counters only; the records are fixed.
		now, st := fs.Stats(), &r.st
		st.CorruptBlocks = now.CorruptBlocks - base.CorruptBlocks
		st.LostReplicas = now.LostReplicas - base.LostReplicas
		st.FailoverReads = now.FailoverReads - base.FailoverReads
		st.FailoverBytes = now.FailoverBytes - base.FailoverBytes
		st.ReReplications = now.ReReplications - base.ReReplications
		st.ScrubBytes = now.ScrubBytes - base.ScrubBytes
		st.StorageSeconds = float64(st.FailoverBytes+st.ScrubBytes) *
			r.c.cfg.Cost.PerDFSByte / float64(max(r.c.cfg.Machines, 1))
	}
	return nil
}

// mapTasks runs the map tasks in a bounded pool. The shuffle-capacity
// limit is enforced deterministically: a task's records count only once
// every earlier task has completed (a completion frontier in task
// order), and the limit trips at the first task index where the
// in-order prefix sum exceeds it. Tasks beyond the tripping index are
// skipped when possible and never counted, so the recorded
// ShuffleRecords/ShuffleBytes of an exhausted job are identical
// run-to-run regardless of scheduling.
//
// With an out-of-process backend a task ships its non-empty segments,
// one partition each, as it ends (shipTask), so the engine never holds
// more than the running tasks' map output. Once shipped, the backend is
// the sole holder of the shuffle: ship and fetch errors fail the job,
// the way a real cluster fails a job whose map outputs are unreachable.
func (r *run[K, V, O]) mapTasks() error {
	n, reducers, limit, extra := len(r.tasks), r.reducers, r.c.cfg.MaxShuffleRecords, r.job.ExtraShuffleRecords
	r.outs, r.counts = make([]mapOut[K, V], n), make([]int, n*reducers)
	var tripAt atomic.Int64
	tripAt.Store(int64(n)) // sentinel: limit never tripped
	if limit > 0 && extra > limit {
		// The phantom charge alone exhausts the cluster; no map task's
		// output is counted.
		tripAt.Store(-1)
	}
	var (
		frontierMu sync.Mutex
		done       []bool
		frontier   int
		prefix     = extra
	)
	if limit > 0 {
		done = make([]bool, n)
	}
	if r.rb != nil {
		r.shipErrs = make([]error, n)
	}
	workers := make([]mapWorker[K, V], r.pool)
	segs := make([][]pair[K, V], n*reducers) // task-major segment headers
	runPool(r.pool, n, func(w, i int) {
		if int64(i) > tripAt.Load() {
			return
		}
		row := i * reducers
		r.outs[i] = r.mapTask(&workers[w], r.tasks[i], segs[row:row+reducers], r.counts[row:row+reducers])
		if r.rb != nil {
			r.shipErrs[i] = shipTask(r.rb, r.codec, PartKey{Job: r.job.Name, Seq: r.seq, Task: i}, &r.outs[i])
		}
		if limit <= 0 {
			return
		}
		frontierMu.Lock()
		done[i] = true
		for frontier < n && done[frontier] {
			prefix += r.taskRecords(frontier)
			if prefix > limit && int64(frontier) < tripAt.Load() {
				tripAt.Store(int64(frontier))
			}
			frontier++
		}
		frontierMu.Unlock()
	})
	for _, w := range workers {
		// The whole capacity: earlier tasks may have written past the
		// last one's length.
		putSlice(w.buf[:cap(w.buf)])
	}
	r.st.ShuffleRecords += extra
	r.st.ShuffleBytes += r.job.ExtraShuffleBytes
	trip := tripAt.Load()
	for i := range min(int(trip)+1, n) {
		r.st.ShuffleRecords += r.taskRecords(i)
		r.st.ShuffleBytes += r.outs[i].bytes
	}
	if trip < int64(n) {
		return &ErrResourceExhausted{Job: r.job.Name, ShuffleRecords: r.st.ShuffleRecords, Limit: limit}
	}
	return nil
}

// taskRecords is the number of pairs map task i emitted.
func (r *run[K, V, O]) taskRecords(i int) int64 {
	var n int64
	for _, c := range r.counts[i*r.reducers : (i+1)*r.reducers] {
		n += int64(c)
	}
	return n
}

// mapTask executes one map task. emit only routes — one partition
// call, one count, one append per pair — keeping the engine's innermost
// loop free of indirect calls it doesn't need. At task end the counts
// are exact, and a stable counting scatter moves the pairs into one
// slab of exactly that length, one contiguous segment per reducer,
// sizing each pair against the slab cell written before it in its
// segment. Emission order inside a segment is preserved, and each
// reducer later walks its segments in task order, so the engine is
// deterministic regardless of scheduling.
func (r *run[K, V, O]) mapTask(w *mapWorker[K, V], t split[K, V], segs [][]pair[K, V], counts []int) mapOut[K, V] {
	part, route, sizer := r.job.Partition, r.route, r.codec.sizer
	if w.next == nil {
		// At least one pair per input record is the common floor; a
		// wider fan-out grows the buffer during the first task only.
		w.buf, w.next = getSlice[pair[K, V]](t.hi-t.lo), make([]int, r.reducers)
	}
	buf, next := w.buf[:0], w.next
	clear(next)
	t.run(t.payload, t.lo, t.hi, func(k K, v V) {
		h := part(k)
		next[route(h)]++
		buf = append(buf, pair[K, V]{k: k, v: v, h: h})
	})
	w.buf = buf
	out := mapOut[K, V]{slab: getSlice[pair[K, V]](len(buf))[:len(buf)], segs: segs}
	var bytes int64
	lo := 0
	for rr, n := range next {
		segs[rr], counts[rr], next[rr] = out.slab[lo:lo+n:lo+n], n, 0
		if n > 0 {
			bytes += sizer.Header(n)
		}
		lo += n
	}
	var zero pair[K, V]
	for i := range buf {
		p := &buf[i]
		rr := route(p.h)
		seg, at := segs[rr], next[rr]
		prev := &zero
		if at > 0 {
			prev = &seg[at-1]
		}
		bytes += sizer.Pair(prev.k, prev.v, p.k, p.v)
		seg[at] = *p
		next[rr] = at + 1
	}
	out.bytes = bytes
	return out
}

// mapFaults replays the fault plan's attempt history for the completed
// map tasks. This is a sequential post-pass over pure hashes, so the
// parallel execution above can never influence which faults fire —
// faults change counters and simulated time, never outputs. Then the
// first failed ship window fails the job.
func (r *run[K, V, O]) mapFaults() error {
	// The splits pin the inputs' payloads — on a backend, decoded copies —
	// which nothing reads after this pass.
	tasks := r.tasks
	r.tasks = nil
	if r.plan != nil {
		r.fstate = newFaultState(r.c.cfg.Machines)
		cost := r.c.cfg.Cost
		mtasks := make([]taskCost, len(tasks))
		for i, t := range tasks {
			in, out := int64(t.hi-t.lo), r.outs[i].bytes
			mtasks[i] = taskCost{records: in, bytes: out,
				seconds: float64(in)*cost.PerMapRecord + float64(out)*cost.PerShuffleByte}
		}
		if err := r.plan.applyPhase(&r.st, r.fstate, cost, r.job.Name, r.seq, phaseMap, mtasks); err != nil {
			return err
		}
	} else {
		r.st.MapAttempts = r.st.MapTasks
	}
	for _, err := range r.shipErrs {
		if err != nil {
			return fmt.Errorf("mr: job %q: shuffle ship: %w", r.job.Name, err)
		}
	}
	return nil
}

// reduce runs one reduce task per reducer in a bounded pool (see
// reduceTask), then returns the map slabs to the pools and, with a
// backend, releases the job's partitions: every fetch window has
// returned, so the backend's copy of the shuffle is dead weight. That
// happens before output concatenation and before the next job ships.
// Best effort: a failed release leaks remote partitions until backend
// Close, nothing more.
func (r *run[K, V, O]) reduce() error {
	nout := r.reducers * r.nparts
	r.results, r.resultBytes, r.redInputs = make([][]O, nout), make([]int64, nout), make([]int64, r.reducers)
	r.fed, r.made, r.los = make([]int64, r.pool), make([]int64, r.pool*r.nparts), make([]int, r.pool*r.nparts)
	r.fetchErrs, r.partErrs = make([]error, r.reducers), make([]error, r.reducers)
	runPool(r.pool, r.reducers, r.reduceTask)
	for i := range r.outs {
		r.outs[i].release()
	}
	if r.rb != nil {
		_ = r.rb.ReleaseJob(r.job.Name, r.seq)
		for _, err := range r.fetchErrs {
			if err != nil {
				return fmt.Errorf("mr: job %q: shuffle fetch: %w", r.job.Name, err)
			}
		}
	}
	for _, err := range r.partErrs {
		if err != nil {
			return err
		}
	}
	return nil
}

// reduceTask is reducer rr on pool worker w. It assembles its partition
// in map-task order: in process the segments alias the map slabs
// directly; with a backend they are fetched back, one window, and
// decoded into one slab of the reducer's own — same order, same pairs,
// so the group arena sees identical input either way. It then groups
// the partition with a pooled two-pass arena (see group.go) — both
// passes walk the segments in task order, so reduce input order (and
// therefore floating-point summation order) is deterministic — and
// reduces it, Reduce receiving contiguous subslices of the arena.
// Reducer partitions are disjoint, so the tasks need no synchronization
// beyond the pool itself.
func (r *run[K, V, O]) reduceTask(w, rr int) {
	buckets := make([][]pair[K, V], len(r.outs))
	var fetched []pair[K, V]
	if r.rb == nil {
		for i := range r.outs {
			buckets[i] = r.outs[i].segs[rr]
		}
	} else {
		key := PartKey{Job: r.job.Name, Seq: r.seq, Reducer: rr}
		if fetched, r.fetchErrs[rr] = fetchReducer(r.rb, r.codec, key, r.counts, r.reducers, buckets); r.fetchErrs[rr] != nil {
			return
		}
	}
	g := getGroupArena[K, V]()
	for _, bucket := range buckets {
		r.redInputs[rr] += int64(len(bucket))
		g.count(bucket)
	}
	g.layout()
	for _, bucket := range buckets {
		g.scatter(bucket)
	}
	putSlice(fetched)
	bufs, lo := r.outBufs(w, rr)
	out, outputPart, reduce := &bufs[0], r.job.OutputPart, r.job.Reduce
	emit := func(o O) {
		*out = append(*out, o)
	}
	for i, k := range g.keys {
		if outputPart != nil {
			p := outputPart(k)
			if p < 0 || p >= r.nparts {
				r.partErrs[rr] = fmt.Errorf("mr: job %q: OutputPart(%v) = %d, outside its %d outputs", r.job.Name, k, p, r.nparts)
				break
			}
			out = &bufs[p]
		}
		reduce(k, g.group(i), emit)
	}
	putGroupArena(g)
	// Size outputs in one walk after the reduce loop rather than per
	// emit, keeping the hot emit closure to a bare append.
	for p, buf := range bufs {
		if r.job.OutSize == nil {
			r.resultBytes[rr*r.nparts+p] = int64(len(buf)-lo[p]) * 24
		} else {
			for _, o := range buf[lo[p]:] {
				r.resultBytes[rr*r.nparts+p] += r.job.OutSize(o)
			}
		}
		r.made[w*r.nparts+p] += int64(len(buf) - lo[p])
	}
	r.fed[w] += r.redInputs[rr]
}

// outBufs readies reducer rr's output buffers, one per part, and where
// its records will start in each. Output is written once, per part,
// and a buffer is given the room the job has taught worker w to expect:
// the worker's part-p records per input pair so far (made/fed) times
// the pairs the buffer is for (plus an eighth when that means a new
// buffer, so the next job's estimate fits this one's). A pool one wide
// runs the reducers in order, so each part continues its predecessor's
// buffer — the room is for every pair still to reduce, and the last
// reducer's buffers are the job's parts. A wider pool gathers each part
// once, at its exact total, in commit. Only a worker's first reducer
// appends into the unknown. No buffer is nil, so whatever emit grows
// one into descends from a slab the pools lent.
func (r *run[K, V, O]) outBufs(w, rr int) (bufs [][]O, lo []int) {
	np := r.nparts
	bufs, lo = r.results[rr*np:(rr+1)*np], r.los[w*np:(w+1)*np]
	for p := range bufs {
		var buf []O
		pairs := r.redInputs[rr]
		if r.pool == 1 {
			pairs = r.st.ShuffleRecords - r.job.ExtraShuffleRecords - r.fed[0]
			if rr > 0 {
				buf, r.results[(rr-1)*np+p] = r.results[(rr-1)*np+p], nil
			}
		}
		if r.fed[w] == 0 {
			if buf == nil {
				// nothing learned yet: the largest slab pooled, or a first
				if buf = getSlice[O](0); buf == nil {
					buf = getSlice[O](1)
				}
			}
		} else if expect := int(pairs * r.made[w*np+p] / r.fed[w]); buf == nil || len(buf)+expect > cap(buf) {
			grown := append(getSlice[O](max(1, len(buf)+expect+expect/8)), buf...)
			putSlice(buf)
			buf = grown
		}
		bufs[p], lo[p] = buf, len(buf)
	}
	return bufs, lo
}

// reduceFaults replays the fault plan for the reduce tasks, the same
// scheme as mapFaults; the blacklist state carries over so a machine
// that failed map attempts stays blacklisted for reduce.
func (r *run[K, V, O]) reduceFaults() error {
	if r.plan == nil {
		r.st.ReduceAttempts = r.reducers
		return nil
	}
	cost := r.c.cfg.Cost
	rtasks := make([]taskCost, r.reducers)
	for i, b := range r.resultBytes {
		rtasks[i/r.nparts].bytes += b
	}
	for rr, n := range r.redInputs {
		t := &rtasks[rr]
		t.records, t.seconds = n, float64(n)*cost.PerReduceRecord+float64(t.bytes)*cost.PerDFSByte
	}
	return r.plan.applyPhase(&r.st, r.fstate, cost, r.job.Name, r.seq, phaseReduce, rtasks)
}

// commit publishes the reduce output. Every output file is created
// before any is written, so a failed Create publishes no part (and, like
// every failed job, charges no output). A part comes from the typed
// pool — big jobs emit hundreds of megabytes here, and cycling fresh
// slabs through the allocator every job turns into page-fault storms —
// and is its file's block, which the DFS owns from the handoff on, or,
// for a job without Outputs, the returned records (callers that drop
// them quickly can hand them back with Recycle). results[p] is part p
// on return.
func (r *run[K, V, O]) commit() error {
	writers := make([]*dfs.Writer, 0, len(r.job.Outputs))
	for _, name := range r.job.Outputs {
		w, err := r.c.fs.Create(name)
		if err != nil {
			for _, w := range writers {
				w.Abort()
			}
			return fmt.Errorf("mr: job %q: %w", r.job.Name, err)
		}
		writers = append(writers, w)
	}
	np, results := r.nparts, r.results
	partBytes, partLen := make([]int64, np), make([]int, np)
	for i, b := range r.resultBytes {
		partBytes[i%np] += b
		partLen[i%np] += len(results[i])
	}
	for p := range partLen {
		r.st.OutputRecords += int64(partLen[p])
		r.st.OutputBytes += partBytes[p]
		part := results[(r.reducers-1)*np+p]
		if r.pool > 1 || len(part) == 0 {
			// An empty part is nil: no pooled slab is spent on it.
			part = nil
			if partLen[p] > 0 {
				part = getSlice[O](partLen[p])
			}
			for i := p; i < len(results); i += np {
				part = append(part, results[i]...)
				putSlice(results[i])
			}
		}
		if len(writers) > 0 {
			writers[p].AppendBlock(part, len(part), partBytes[p])
			disown(part)
		}
		results[p] = part // slot p is spent: later parts read only their own slots
	}
	for _, w := range writers {
		w.Close()
	}
	return nil
}

// fail is every exit after splitInputs that abandons the job: it
// returns what the job still holds to the pools and — until reduce,
// which releases the backend's partitions itself after its last fetch,
// has begun — to the backend, closes the books, and hands err back.
func (r *run[K, V, O]) fail(err error) ([]O, JobStats, error) {
	for i := range r.outs {
		r.outs[i].release()
	}
	for _, out := range r.results {
		putSlice(out)
	}
	if r.rb != nil && r.results == nil {
		_ = r.rb.ReleaseJob(r.job.Name, r.seq) // best effort, as in reduce
	}
	r.finish()
	return nil, r.st, err
}

// finish charges the job its simulated time and records it.
func (r *run[K, V, O]) finish() {
	cfg := r.c.cfg
	r.st.SimSeconds = cfg.Cost.JobTime(cfg.Machines, r.st) + r.st.PenaltySeconds + r.st.StorageSeconds
	r.c.record(r.st)
}

// splitBounds cuts count records into n contiguous input splits: split
// i is records bounds[i]..bounds[i+1]. Some splits are empty when there
// are fewer records than n.
func splitBounds(count, n int) []int {
	if n <= 0 {
		n = 1
	}
	bounds := make([]int, n+1)
	per := (count + n - 1) / n
	for i := 1; i <= n; i++ {
		hi := i * per
		if hi > count {
			hi = count
		}
		bounds[i] = hi
	}
	return bounds
}

// runPool executes fn(w, 0..n-1) using at most width concurrent
// goroutines; w < width numbers the goroutine making the call, so
// callers can keep per-worker state without synchronization.
func runPool(width, n int, fn func(w, i int)) {
	if width > n {
		width = n
	}
	if width <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < width; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
}

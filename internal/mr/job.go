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
	// Combine, when non-nil, merges the values one map task emitted for
	// a key before they are shuffled — Hadoop's combiner. It must be
	// associative and produce values Reduce accepts. Shuffle counters
	// (and therefore resource limits and simulated time) account the
	// post-combine volume, which is the point of using one.
	//
	// The HaTen2 job plans deliberately do not use combiners — the
	// paper's implementation didn't, and Tables III/IV are reproduced
	// against un-combined shuffle volumes — but the engine supports
	// them for the combiner ablation experiment.
	Combine func(key K, values []V) []V
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
// reducer. A segment is capacity-clamped to its run, so appending to it
// reallocates that segment alone (a combiner that expands its bucket
// leaves segs[r] pointing at a private array); only slab itself ever
// goes back to the pool, whole and once.
type mapOut[K comparable, V any] struct {
	slab    []pair[K, V]
	segs    [][]pair[K, V]
	records int64
	bytes   int64
}

func (o *mapOut[K, V]) release() {
	putSlice(o.slab)
	o.slab, o.segs = nil, nil
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
	nparts := max(len(job.Outputs), 1)
	if (job.OutputPart != nil) != (nparts > 1) {
		return nil, JobStats{}, fmt.Errorf("mr: job %q: OutputPart goes with two or more Outputs, got %d", job.Name, len(job.Outputs))
	}
	plan, jobSeq, err := c.startJob(job.Name)
	if err != nil {
		return nil, JobStats{Name: job.Name}, err
	}
	outSize := job.OutSize
	if outSize == nil {
		outSize = func(O) int64 { return 24 }
	}
	reducers := c.Workers()
	// rb is non-nil when an out-of-process backend owns the data plane:
	// inputs are fetched from it when mirrored, and the shuffle always
	// round-trips through it (ship after map, fetch inside reduce).
	rb := c.remote()

	st := JobStats{Name: job.Name, ReduceTasks: reducers}
	// Snapshot the DFS storage-fault counters around the input reads so
	// the job is charged the failovers and scrubs its own reads caused.
	// Attribution assumes jobs run sequentially (the same contract the
	// fault plan's job sequence documents); concurrent Run callers get
	// scheduling-dependent attribution but exact cluster-level totals.
	storageOn := plan != nil && (plan.BlockCorruptRate > 0 || plan.ReplicaLossRate > 0)
	var storageBase dfs.Stats
	if storageOn {
		storageBase = c.fs.Stats()
	}
	// --- Map phase -------------------------------------------------------
	// Split every input into one split per worker and run map tasks in a
	// bounded pool. A task's emissions land in one worker-local buffer
	// (reused by the worker's next task, so it stops growing after the
	// first) while a per-reducer count is kept; at task end the counts
	// are exact, and a stable counting scatter moves the pairs into one
	// slab of exactly that length, one contiguous segment per reducer.
	// Emission order inside a segment is preserved, and each reducer
	// later walks its segments in task order, so the engine is
	// deterministic regardless of scheduling.
	//
	// Inputs read the DFS payload zero-copy: a task maps a borrowed
	// sub-range of the file's []R slice.
	type taskOut = mapOut[K, V]
	type mapWorker struct {
		buf  []pair[K, V]
		next []int // per reducer: the task's pair count, then its segment cursor
	}

	// Reducer routing is Partition(k) % reducers by contract; when the
	// worker count is a power of two (the common cluster shape) the
	// modulo reduces to a mask with bit-identical routing.
	rmask := uint64(0)
	if reducers&(reducers-1) == 0 {
		rmask = uint64(reducers - 1)
	}
	route := func(h uint64) uint64 {
		if rmask != 0 {
			return h & rmask
		}
		return h % uint64(reducers)
	}
	// sizer is the job's one charge function. With a block codec, each
	// non-empty (map task, reducer) segment is one block — the
	// per-partition spill a real job would encode and ship: Header once
	// plus consecutive-pair deltas, the first pair sized against zero
	// values. Without one, a flat 24 bytes is a headerless codec whose
	// pairs ignore their predecessor.
	sizer := job.BlockKV
	if sizer == nil {
		sizer = &BlockSizer[K, V]{Pair: func(K, V, K, V) int64 { return 24 }, Header: func(int) int64 { return 0 }}
	}

	// runTask executes one map task: produce drives the input's map
	// function over the task's split of records input records. emit only
	// routes — one partition call, one count, one append per pair —
	// keeping the engine's innermost loop free of indirect calls it
	// doesn't need. A pair is sized where it is written for the last
	// time: in the scatter, against the slab cell just written before it
	// in its segment, or in the combiner's flatten loop for a combine job
	// (post-combine volume is what is shuffled).
	part := job.Partition
	runTask := func(w *mapWorker, segs [][]pair[K, V], records int, produce func(emit func(K, V))) taskOut {
		if w.next == nil {
			// At least one pair per input record is the common floor; a
			// wider fan-out grows the buffer during the first task only.
			w.buf, w.next = getSlice[pair[K, V]](records), make([]int, reducers)
		}
		buf, next := w.buf[:0], w.next
		clear(next)
		produce(func(k K, v V) {
			h := part(k)
			next[route(h)]++
			buf = append(buf, pair[K, V]{k: k, v: v, h: h})
		})
		w.buf = buf
		out := taskOut{slab: getSlice[pair[K, V]](len(buf))[:len(buf)], segs: segs, records: int64(len(buf))}
		sized := job.Combine == nil
		var bytes int64
		lo := 0
		for r, n := range next {
			segs[r], next[r] = out.slab[lo:lo+n:lo+n], 0
			if n > 0 && sized {
				bytes += sizer.Header(n)
			}
			lo += n
		}
		var zero pair[K, V]
		for i := range buf {
			p := &buf[i]
			r := route(p.h)
			seg, at := segs[r], next[r]
			if sized {
				prev := &zero
				if at > 0 {
					prev = &seg[at-1]
				}
				bytes += sizer.Pair(prev.k, prev.v, p.k, p.v)
			}
			seg[at] = *p
			next[r] = at + 1
		}
		if !sized {
			out.records = 0
			scratch := getCombineScratch[K, V]()
			for r, bucket := range segs {
				var n int64
				segs[r], n = combineBucket(bucket, job.Combine, scratch, sizer)
				out.records += int64(len(segs[r]))
				bytes += n
			}
			putCombineScratch(scratch)
		}
		out.bytes = bytes
		return out
	}

	var tasks []func(*mapWorker, [][]pair[K, V]) taskOut
	var taskInputs []int64 // records per map task, for the fault pass
	for _, in := range job.Inputs {
		payload, nrec, err := c.fs.BlockView(in.File)
		if err != nil {
			return nil, st, fmt.Errorf("mr: job %q: %w", job.Name, err)
		}
		bounds := splitBounds(nrec, c.Workers())
		// Out-of-process backend: substitute the mirrored copy of the
		// input for the in-process payload when the backend serves one.
		// The local BlockView above still ran — splits, DFS charges, and
		// storage-fault detection are its, so counters stay byte-identical
		// across backends — but the records the map tasks consume are the
		// decoded remote bytes. A miss (unmirrored file, decode failure)
		// keeps the in-process copy: the file plane degrades to local,
		// never to wrong.
		if rb != nil && payload != nil {
			if dec, ok := fetchTyped(rb, in.File, payload, nrec); ok {
				payload = dec
			}
		}
		st.InputRecords += int64(nrec)
		sz, err := c.fs.Size(in.File)
		if err != nil {
			return nil, st, fmt.Errorf("mr: job %q: %w", job.Name, err)
		}
		st.InputBytes += sz
		for s := 0; s < len(bounds)-1; s++ {
			lo, hi := bounds[s], bounds[s+1]
			if lo == hi {
				continue
			}
			st.MapTasks++
			taskInputs = append(taskInputs, int64(hi-lo))
			runFn, blk := in.run, payload
			tasks = append(tasks, func(w *mapWorker, segs [][]pair[K, V]) taskOut {
				return runTask(w, segs, hi-lo, func(emit func(K, V)) { runFn(blk, lo, hi, emit) })
			})
		}
	}
	if storageOn {
		// The input reads above are the job's storage-failure surface:
		// any bad replica copies they crossed were detected, failed
		// over past, and re-replicated inside the DFS. Charge the
		// deltas — and the simulated time of the extra I/O — to this
		// job. Like the task fault pass, this moves time and counters
		// only; the records the tasks will map are already fixed.
		now := c.fs.Stats()
		st.CorruptBlocks = now.CorruptBlocks - storageBase.CorruptBlocks
		st.LostReplicas = now.LostReplicas - storageBase.LostReplicas
		st.FailoverReads = now.FailoverReads - storageBase.FailoverReads
		st.FailoverBytes = now.FailoverBytes - storageBase.FailoverBytes
		st.ReReplications = now.ReReplications - storageBase.ReReplications
		st.ScrubBytes = now.ScrubBytes - storageBase.ScrubBytes
		machines := c.cfg.Machines
		if machines <= 0 {
			machines = 1
		}
		st.StorageSeconds = float64(st.FailoverBytes+st.ScrubBytes) *
			c.cfg.Cost.PerDFSByte / float64(machines)
	}

	// Run the map tasks. The shuffle-capacity limit is enforced
	// deterministically: a task's records count only once every
	// earlier task has completed (a completion frontier in task
	// order), and the limit trips at the first task index where the
	// in-order prefix sum exceeds it. Tasks beyond the tripping index
	// are skipped when possible and never counted, so the recorded
	// ShuffleRecords/ShuffleBytes of an exhausted job are identical
	// run-to-run regardless of scheduling.
	limit := c.cfg.MaxShuffleRecords
	outs := make([]taskOut, len(tasks))
	pool := runtime.GOMAXPROCS(0)
	if w := c.Workers(); w < pool {
		pool = w
	}
	var tripAt atomic.Int64
	tripAt.Store(int64(len(tasks))) // sentinel: limit never tripped
	if limit > 0 && job.ExtraShuffleRecords > limit {
		// The phantom charge alone exhausts the cluster; no map task's
		// output is counted.
		tripAt.Store(-1)
	}
	var (
		frontierMu sync.Mutex
		done       []bool
		frontier   int
		prefix     = job.ExtraShuffleRecords
	)
	if limit > 0 {
		done = make([]bool, len(tasks))
	}
	// With an out-of-process backend a map task's slab leaves the
	// engine's heap as soon as the task ends: every non-empty (map task,
	// reducer) segment becomes one encoded partition, keyed by (job, seq,
	// task, reducer), one task's partitions per ship window. The engine
	// therefore never holds more than the running tasks' map output, and
	// the next task carves the slab this one returned to the pool.
	// The reduce phase fetches the partitions back in task order, so
	// grouping, reduce input order, and therefore output bytes are
	// identical to the in-process path. Once shipped, the backend is the
	// sole holder of the shuffle: ship and fetch errors fail the job, the
	// way a real cluster fails a job whose map outputs become
	// unreachable. counts remembers the records of every shipped
	// partition, so a segment the map phase saw empty is never fetched.
	var counts []int
	var shipErrs []error
	codec := partCodec[K, V]{sizer: sizer, part: part}
	if rb != nil {
		counts, shipErrs = make([]int, len(tasks)*reducers), make([]error, len(tasks))
	}
	workers := make([]mapWorker, pool)
	segs := make([][]pair[K, V], len(tasks)*reducers) // task-major segment headers
	runPool(pool, len(tasks), func(w, i int) {
		if int64(i) > tripAt.Load() {
			return
		}
		outs[i] = tasks[i](&workers[w], segs[i*reducers:(i+1)*reducers])
		if rb != nil {
			shipErrs[i] = shipTask(rb, codec, PartKey{Job: job.Name, Seq: jobSeq, Task: i},
				&outs[i], counts[i*reducers:(i+1)*reducers])
		}
		if limit <= 0 {
			return
		}
		frontierMu.Lock()
		done[i] = true
		for frontier < len(tasks) && done[frontier] {
			prefix += outs[frontier].records
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
	st.ShuffleRecords += job.ExtraShuffleRecords
	st.ShuffleBytes += job.ExtraShuffleBytes
	counted := len(tasks)
	exhausted := false
	if t := tripAt.Load(); t < int64(len(tasks)) {
		exhausted = true
		counted = int(t) + 1
	}
	for _, o := range outs[:counted] {
		st.ShuffleRecords += o.records
		st.ShuffleBytes += o.bytes
	}
	// fail is every exit after the map phase that abandons the job: it
	// returns what the job still holds to the pools and — until the
	// reduce phase, which releases the backend's partitions itself after
	// its last fetch, has begun — to the backend, closes the books, and
	// hands err back.
	var results [][]O
	fail := func(err error) ([]O, JobStats, error) {
		for i := range outs {
			outs[i].release()
		}
		for _, out := range results {
			putSlice(out)
		}
		if rb != nil && results == nil {
			_ = rb.ReleaseJob(job.Name, jobSeq) // best effort, as below
		}
		st.SimSeconds = c.cfg.Cost.JobTime(c.cfg.Machines, st) + st.PenaltySeconds + st.StorageSeconds
		c.record(st)
		return nil, st, err
	}
	if exhausted {
		return fail(&ErrResourceExhausted{Job: job.Name, ShuffleRecords: st.ShuffleRecords, Limit: limit})
	}

	// --- Map fault pass ---------------------------------------------------
	// Replay the fault plan's attempt history for the completed map tasks.
	// This is a sequential post-pass over pure hashes, so the parallel
	// execution above can never influence which faults fire — faults change
	// counters and simulated time, never outputs.
	var fstate *faultState
	if plan != nil {
		fstate = newFaultState(c.cfg.Machines)
		mtasks := make([]taskCost, len(tasks))
		for i := range tasks {
			mtasks[i] = taskCost{
				records: taskInputs[i],
				bytes:   outs[i].bytes,
				seconds: float64(taskInputs[i])*c.cfg.Cost.PerMapRecord +
					float64(outs[i].bytes)*c.cfg.Cost.PerShuffleByte,
			}
		}
		if ferr := plan.applyPhase(&st, fstate, c.cfg.Cost, job.Name, jobSeq, phaseMap, mtasks); ferr != nil {
			return fail(ferr)
		}
	} else {
		st.MapAttempts = st.MapTasks
	}
	for _, err := range shipErrs {
		if err != nil {
			return fail(fmt.Errorf("mr: job %q: shuffle ship: %w", job.Name, err))
		}
	}

	// --- Shuffle + reduce phases ----------------------------------------
	// Every reduce task independently groups its own partition with a
	// pooled two-pass arena (see group.go) — both passes walk the map
	// tasks' segments in task order, so reduce input order (and therefore
	// floating-point summation order) is deterministic — and immediately
	// reduces it, with Reduce receiving contiguous subslices of the
	// arena instead of per-key heap slices. Reducer partitions are
	// disjoint, so the tasks parallelize with no synchronization beyond
	// the pool itself.
	//
	// Output is written once, per part. Reducer r appends part p's
	// records to results[r·parts+p], and before it runs that buffer is
	// given the room the job has taught its worker to expect: the
	// worker's part-p records per input pair so far (made/fed) times the
	// pairs the buffer is for (plus an eighth when that means a new
	// buffer, so the next job's estimate fits this one's). A pool one
	// wide runs the reducers in order, so each part continues its
	// predecessor's buffer — the room is for every pair still to reduce,
	// and the last reducer's buffers are the job's parts. A wider pool
	// gathers each part once, at its exact total. Only a worker's first
	// reducer appends into the unknown.
	results = make([][]O, reducers*nparts)
	fed, made := make([]int64, pool), make([]int64, pool*nparts)
	los := make([]int, pool*nparts) // per worker: where its reducer's output starts in each part
	shuffled := st.ShuffleRecords - job.ExtraShuffleRecords
	resultBytes := make([]int64, reducers*nparts)
	redInputs := make([]int64, reducers) // pairs per reduce task, for the fault pass
	partErrs := make([]error, reducers)
	var fetchErrs []error
	if rb != nil {
		fetchErrs = make([]error, reducers)
	}
	runPool(pool, reducers, func(w, r int) {
		// Assemble this reducer's partition in map-task order. In process
		// the segments alias the map slabs directly; with a backend they
		// are fetched back and decoded into one slab of the reducer's own
		// — same order, same pairs, so the group arena sees identical
		// input either way.
		buckets := make([][]pair[K, V], len(outs))
		var fetched []pair[K, V]
		if rb == nil {
			for i := range outs {
				buckets[i] = outs[i].segs[r]
			}
		} else if fetched, fetchErrs[r] = fetchReducer(rb, codec, PartKey{Job: job.Name, Seq: jobSeq, Reducer: r}, counts, reducers, buckets); fetchErrs[r] != nil {
			return
		}
		g := getGroupArena[K, V]()
		for _, bucket := range buckets {
			redInputs[r] += int64(len(bucket))
			g.count(bucket)
		}
		g.layout()
		for _, bucket := range buckets {
			g.scatter(bucket)
		}
		putSlice(fetched)
		bufs, lo := results[r*nparts:(r+1)*nparts], los[w*nparts:(w+1)*nparts]
		for p := range bufs {
			var buf []O
			pairs := redInputs[r]
			if pool == 1 {
				pairs = shuffled - fed[0]
				if r > 0 {
					buf, results[(r-1)*nparts+p] = results[(r-1)*nparts+p], nil
				}
			}
			if fed[w] == 0 {
				if buf == nil {
					buf = getSlice[O](0) // nothing learned yet: the largest slab pooled
				}
			} else if expect := int(pairs * made[w*nparts+p] / fed[w]); len(buf)+expect > cap(buf) {
				grown := append(getSlice[O](len(buf)+expect+expect/8), buf...)
				putSlice(buf)
				buf = grown
			}
			bufs[p], lo[p] = buf, len(buf)
		}
		out := &bufs[0]
		emit := func(o O) {
			*out = append(*out, o)
		}
		for i, k := range g.keys {
			if job.OutputPart != nil {
				p := job.OutputPart(k)
				if p < 0 || p >= nparts {
					partErrs[r] = fmt.Errorf("mr: job %q: OutputPart(%v) = %d, outside its %d outputs", job.Name, k, p, nparts)
					break
				}
				out = &bufs[p]
			}
			job.Reduce(k, g.group(i), emit)
		}
		putGroupArena(g)
		// Size outputs in one walk after the reduce loop rather than per
		// emit, keeping the hot emit closure to a bare append.
		for p, buf := range bufs {
			if job.OutSize == nil {
				resultBytes[r*nparts+p] = int64(len(buf)-lo[p]) * 24
			} else {
				for _, o := range buf[lo[p]:] {
					resultBytes[r*nparts+p] += outSize(o)
				}
			}
			made[w*nparts+p] += int64(len(buf) - lo[p])
		}
		fed[w] += redInputs[r]
	})
	for i := range outs {
		outs[i].release()
	}

	if rb != nil {
		// Every fetch window has returned: the backend's copy of the
		// shuffle is dead weight from here on, so it goes before output
		// concatenation rather than after — and before the next job ships.
		// Best effort: a failed release leaks remote partitions until
		// backend Close, nothing more.
		_ = rb.ReleaseJob(job.Name, jobSeq)
		for _, ferr := range fetchErrs {
			if ferr != nil {
				return fail(fmt.Errorf("mr: job %q: shuffle fetch: %w", job.Name, ferr))
			}
		}
	}
	for _, perr := range partErrs {
		if perr != nil {
			return fail(perr)
		}
	}
	redBytes, partBytes, partLen := make([]int64, reducers), make([]int64, nparts), make([]int, nparts)
	for i, b := range resultBytes {
		redBytes[i/nparts] += b
		partBytes[i%nparts] += b
		partLen[i%nparts] += len(results[i])
	}

	// --- Reduce fault pass ------------------------------------------------
	// Same scheme as the map pass; the blacklist state carries over so a
	// machine that failed map attempts stays blacklisted for reduce.
	if plan != nil {
		rtasks := make([]taskCost, reducers)
		for r := range rtasks {
			rtasks[r] = taskCost{
				records: redInputs[r],
				bytes:   redBytes[r],
				seconds: float64(redInputs[r])*c.cfg.Cost.PerReduceRecord +
					float64(redBytes[r])*c.cfg.Cost.PerDFSByte,
			}
		}
		if ferr := plan.applyPhase(&st, fstate, c.cfg.Cost, job.Name, jobSeq, phaseReduce, rtasks); ferr != nil {
			return fail(ferr)
		}
	} else {
		st.ReduceAttempts = reducers
	}

	// --- Output -----------------------------------------------------------
	// Every output file is created before any is written, so a failed
	// Create publishes no part (and, like every failed job, charges no
	// output). A part comes from the typed pool — big jobs emit hundreds
	// of megabytes here, and cycling fresh slabs through the allocator
	// every job turns into page-fault storms — and is its file's block,
	// which the DFS owns from the handoff on, or, for a job without
	// Outputs, the returned records (callers that drop them quickly can
	// hand them back with Recycle).
	writers := make([]*dfs.Writer, 0, len(job.Outputs))
	for _, name := range job.Outputs {
		w, err := c.fs.Create(name)
		if err != nil {
			for _, w := range writers {
				w.Abort()
			}
			return fail(fmt.Errorf("mr: job %q: %w", job.Name, err))
		}
		writers = append(writers, w)
	}
	for p := range partLen {
		st.OutputRecords += int64(partLen[p])
		st.OutputBytes += partBytes[p]
		part := results[(reducers-1)*nparts+p]
		if pool > 1 || len(part) == 0 {
			// An empty part is nil: no pooled slab is spent on it.
			part = nil
			if partLen[p] > 0 {
				part = getSlice[O](partLen[p])
			}
			for r := p; r < len(results); r += nparts {
				part = append(part, results[r]...)
				putSlice(results[r])
			}
		}
		if len(writers) > 0 {
			writers[p].AppendBlock(part, len(part), partBytes[p])
		}
		results[p] = part // slot p is spent: later parts read only their own slots
	}
	for _, w := range writers {
		w.Close()
	}

	st.SimSeconds = c.cfg.Cost.JobTime(c.cfg.Machines, st) + st.PenaltySeconds + st.StorageSeconds
	c.record(st)
	return results[0], st, nil
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

// combineScratch is the reusable grouping state of combineBucket. One
// instance serves all of a map task's buckets (and, via the typed
// pools, later tasks of jobs with the same key/value types), so the
// key map and value slices are allocated once instead of per bucket.
type combineScratch[K comparable, V any] struct {
	idx  map[K]int
	keys []K
	// hs records each key's raw partition hash (from the first pair
	// seen), so the flattened pairs keep the hash the group table needs.
	hs   []uint64
	vals [][]V
}

func getCombineScratch[K comparable, V any]() *combineScratch[K, V] {
	if v := poolFor[*combineScratch[K, V]]().Get(); v != nil {
		return v.(*combineScratch[K, V])
	}
	return &combineScratch[K, V]{idx: make(map[K]int)}
}

func putCombineScratch[K comparable, V any](s *combineScratch[K, V]) {
	s.reset()
	// Value slices are truncated lazily as keys are registered, so
	// stale values can linger past their length; clear the full
	// retained storage so pooled scratch pins no values.
	for i := range s.vals {
		v := s.vals[i][:cap(s.vals[i])]
		clear(v)
		s.vals[i] = v[:0]
	}
	poolFor[*combineScratch[K, V]]().Put(s)
}

// reset readies the scratch for the next bucket. Value slices are not
// touched here — combineBucket truncates each slot as it re-registers
// it, keeping reset O(keys of the previous bucket).
func (s *combineScratch[K, V]) reset() {
	clear(s.idx)
	clear(s.keys)
	s.keys = s.keys[:0]
	s.hs = s.hs[:0]
}

// combineBucket groups one task's bucket by key (preserving first-seen
// key order), applies the combiner, and flattens back to pairs, sizing
// each through sizer as it is written; it returns the pairs and their
// block's bytes. The combiner may expand a key's values (return more
// than one); the output grows past the original bucket as needed.
func combineBucket[K comparable, V any](bucket []pair[K, V], combine func(K, []V) []V, s *combineScratch[K, V], sizer *BlockSizer[K, V]) ([]pair[K, V], int64) {
	if len(bucket) == 0 {
		return bucket, 0
	}
	s.reset()
	for _, p := range bucket {
		i, ok := s.idx[p.k]
		if !ok {
			i = len(s.keys)
			s.idx[p.k] = i
			s.keys = append(s.keys, p.k)
			s.hs = append(s.hs, p.h)
			if i < len(s.vals) {
				s.vals[i] = s.vals[i][:0]
			} else {
				s.vals = append(s.vals, nil)
			}
		}
		s.vals[i] = append(s.vals[i], p.v)
	}
	// The grouped values live in scratch storage, so the bucket itself
	// can be rewritten in place.
	out := bucket[:0]
	var bytes int64
	var pk K
	var pv V
	for i, k := range s.keys {
		for _, v := range combine(k, s.vals[i]) {
			bytes += sizer.Pair(pk, pv, k, v)
			pk, pv = k, v
			out = append(out, pair[K, V]{k: k, v: v, h: s.hs[i]})
		}
	}
	if len(out) > 0 {
		bytes += sizer.Header(len(out))
	}
	return out, bytes
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

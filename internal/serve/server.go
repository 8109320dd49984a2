package serve

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/haten2/haten2/internal/matrix"
)

// Config sizes the serving engine. The zero value of any field selects
// a sensible default; see New.
type Config struct {
	// Shards is the number of row-wise shards of the object factor,
	// each owned by one persistent worker goroutine.
	Shards int
	// CacheSize is the per-stripe LRU capacity (stripe count equals
	// Shards). Zero selects the default of 1024; only NoCache disables
	// caching.
	CacheSize int
	// MaxBatch caps how many concurrent queries one dispatch hands to
	// the shard workers together.
	MaxBatch int
	// NoCache disables the result cache (CacheSize is ignored). The
	// load benchmark uses it to separate batching wins from cache wins.
	NoCache bool
}

// inFlightBatches is the dispatch pipeline depth: one batch being
// scored by the workers while the dispatcher assembles the next.
const inFlightBatches = 2

// request is one query traveling through the dispatcher. Requests are
// pooled; results is a reusable buffer the completing worker fills.
type request struct {
	subject   int64
	predicate int64
	k         int
	results   []Result
	err       error
	done      chan struct{}
}

// batch is one dispatch unit: up to MaxBatch requests handed over together.
// All of its buffers are reused across dispatches, so the steady state
// allocates nothing.
type batch struct {
	reqs []*request
	// q is the B×R query block; row i is request i's query vector.
	q matrix.Matrix
	// z[i] is the score request i gives every all-zero object row.
	z []float64
	// partials[i*shards+sh] is request i's top-k within shard sh.
	partials [][]Result
	// mergeParts/heads/pos are MergeTopK scratch.
	mergeParts [][]Result
	heads, pos []int
	// remaining counts workers still scoring this batch; the worker
	// that decrements it to zero merges and completes the requests.
	remaining int32
}

// scanBlock is the number of compact rows scored between cut-off tests.
const scanBlock = 64

// shardWorker serves the contiguous row range [lo, hi) of the object
// factor: its rows that are not all zero, compacted in descending order
// of norm, and a reusable score panel for one block of them. The
// all-zero rows are never scored (see offerZeros).
type shardWorker struct {
	id     int
	lo, hi int64
	rows   matrix.Matrix // the range's nonzero rows, an owned copy in descending norm order
	norm   []float64     // norm[j] ≥ ‖rows.Row(j)‖₂, descending
	idx    []int64       // global index of each compact row; ascending among equal norms
	zeros  []int64       // global indexes of the range's all-zero rows, ascending
	scores matrix.Matrix // 1×scanBlock panel, data reused
	in     chan *batch
	srv    *Server
}

// Server answers top-k factor queries at high throughput: queries are
// batched by a dispatcher, scanned shard-parallel in descending norm
// order up to an exact cut-off, merged on a k-way heap, and cached in
// striped LRUs with single-flight coalescing (DESIGN.md §3h). All
// rankings are bit-identical to internal/baseline's single-threaded
// scorer regardless of Shards, MaxBatch, or GOMAXPROCS.
type Server struct {
	model   *Model
	cfg     Config
	stripes []*stripe
	workers []*shardWorker

	queue       chan *request
	freeBatches chan *batch
	wg          sync.WaitGroup

	reqPool   sync.Pool
	scorePool sync.Pool // *[]float64 scratch for the unsharded paths

	queries     atomic.Uint64
	batches     atomic.Uint64
	batchedReqs atomic.Uint64
	rowsScored  atomic.Uint64
}

// New builds a Server over the model and starts its dispatcher and
// shard workers. The caller must Close it to join them. Zero config
// fields default to Shards 4 (clamped to the object count), CacheSize
// 1024 per stripe, MaxBatch 32. The request queue holds 4×MaxBatch.
func New(model *Model, cfg Config) (*Server, error) {
	if model == nil {
		return nil, fmt.Errorf("serve: nil model")
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 4
	}
	if cfg.Shards > model.Objects() {
		cfg.Shards = model.Objects()
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1 // empty object mode still gets one worker
	}
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 1024
	}
	if cfg.NoCache {
		cfg.CacheSize = 0
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 32
	}

	s := &Server{
		model:       model,
		cfg:         cfg,
		stripes:     make([]*stripe, cfg.Shards),
		workers:     make([]*shardWorker, cfg.Shards),
		queue:       make(chan *request, 4*cfg.MaxBatch),
		freeBatches: make(chan *batch, inFlightBatches),
	}
	for i := range s.stripes {
		s.stripes[i] = &stripe{
			lru:     newLRU(cfg.CacheSize),
			flights: make(map[qkey]*flight),
		}
	}
	s.reqPool.New = func() any {
		return &request{done: make(chan struct{}, 1)}
	}
	s.scorePool.New = func() any {
		buf := make([]float64, 0)
		return &buf
	}

	obj := model.Factor(1)
	r := model.QueryDim()
	for i := range s.workers {
		s.workers[i] = newShardWorker(s, i, obj, i*obj.Rows/cfg.Shards, (i+1)*obj.Rows/cfg.Shards)
	}
	for b := 0; b < inFlightBatches; b++ {
		s.freeBatches <- &batch{
			partials:   make([][]Result, cfg.MaxBatch*cfg.Shards),
			mergeParts: make([][]Result, 0, cfg.Shards),
			q:          matrix.Matrix{Cols: r},
			z:          make([]float64, cfg.MaxBatch),
		}
	}

	s.wg.Add(1 + len(s.workers))
	// The dispatcher and shard workers are persistent daemons: Close
	// closes s.queue, the dispatcher closes the workers' channels on
	// shutdown, and Close's s.wg.Wait joins them all.
	go s.dispatch()
	for _, w := range s.workers {
		go w.run()
	}
	return s, nil
}

// Close shuts the dispatcher and workers down and joins them. Queries
// must have drained before Close; querying a closed server panics.
func (s *Server) Close() {
	close(s.queue)
	s.wg.Wait()
}

// dispatch is the batching loop: it blocks for the first request, then
// drains whatever else is already queued (up to MaxBatch) without
// waiting — adaptive batching with no timers, so the serving layer
// stays wall-clock-free. Under load batches fill up; an idle server
// degenerates to batch size 1 with no added latency.
func (s *Server) dispatch() {
	defer s.wg.Done()
	for {
		req, ok := <-s.queue
		if !ok {
			for _, w := range s.workers {
				close(w.in)
			}
			return
		}
		b := <-s.freeBatches
		b.reqs = append(b.reqs[:0], req)
	fill:
		for len(b.reqs) < s.cfg.MaxBatch {
			select {
			case more, open := <-s.queue:
				if !open {
					// Dispatch what we have; the outer receive
					// observes the close on the next iteration.
					break fill
				}
				b.reqs = append(b.reqs, more)
			default:
				break fill
			}
		}
		s.batches.Add(1)
		s.batchedReqs.Add(uint64(len(b.reqs)))

		// Build the query block: row i is request i's query vector.
		n := len(b.reqs) * b.q.Cols
		if cap(b.q.Data) < n {
			b.q.Data = make([]float64, n)
		}
		b.q.Data = b.q.Data[:n]
		b.q.Rows = len(b.reqs)
		for i, r := range b.reqs {
			q := b.q.Row(i)
			s.model.queryVecInto(q, r.subject, r.predicate)
			// What the kernel would score an all-zero row: the +0-started,
			// ascending-r sum of q_r·0 (+0 unless q overflowed).
			b.z[i] = 0
			for _, v := range q {
				b.z[i] += v * 0
			}
		}

		atomic.StoreInt32(&b.remaining, int32(len(s.workers)))
		for _, w := range s.workers {
			w.in <- b
		}
	}
}

// newShardWorker builds the worker for the object rows [lo, hi): it
// sorts the rows into zeros and, in descending order of a certified
// norm bound with ties in ascending index, idx; then it copies the idx
// rows into one compact matrix it owns, allocated at its final size.
func newShardWorker(s *Server, id int, obj *matrix.Matrix, lo, hi int) *shardWorker {
	w := &shardWorker{id: id, lo: int64(lo), hi: int64(hi), in: make(chan *batch, inFlightBatches), srv: s,
		scores: matrix.Matrix{Rows: 1, Data: make([]float64, scanBlock)}}
	type normRow struct {
		n float64
		o int64
	}
	var nz []normRow
	for o := lo; o < hi; o++ {
		if n := normBound(obj.Row(o)); n > 0 {
			nz = append(nz, normRow{n, int64(o)})
		} else {
			w.zeros = append(w.zeros, int64(o))
		}
	}
	slices.SortFunc(nz, func(a, b normRow) int { return cmp.Or(cmp.Compare(b.n, a.n), cmp.Compare(a.o, b.o)) })
	w.rows = *matrix.New(len(nz), obj.Cols)
	for j, r := range nz {
		w.norm = append(w.norm, r.n)
		w.idx = append(w.idx, r.o)
		copy(w.rows.Row(j), obj.Row(int(r.o)))
	}
	return w
}

// run is a shard worker's loop: rank every request in the batch over
// this shard's rows, and — if this worker is the last to finish the
// batch — merge the shards and complete the requests. An all-zero
// query scores every row z, so the shard's answer is its k lowest
// indexes, found without a scan; any other query is scanned (see scan)
// and then offered the zero rows.
func (w *shardWorker) run() {
	defer w.srv.wg.Done()
	for b := range w.in {
		shards := len(w.srv.workers)
		scored := 0
		for i, req := range b.reqs {
			slot := i*shards + w.id
			part, q := b.partials[slot][:0], b.q.Row(i)
			if !slices.ContainsFunc(q, func(v float64) bool { return v != 0 }) {
				for o := w.lo; o < min(w.hi, w.lo+int64(req.k)); o++ {
					part = append(part, Result{Index: o, Score: b.z[i]})
				}
				b.partials[slot] = part
				continue
			}
			part, n := w.scan(part, q, req.k)
			scored += n
			b.partials[slot] = w.offerZeros(part, b.z[i], req.k)
		}
		w.srv.rowsScored.Add(uint64(scored))
		if atomic.AddInt32(&b.remaining, -1) == 0 {
			w.srv.complete(b)
		}
	}
}

// scan appends the top k of the compact rows for the query q to h
// (empty), best first, and returns it with the number of rows scored.
// It scores scanBlock rows at a time with MulBTInto into a worst-at-root
// heap under better. Before each block it stops when the heap is full
// and ‖q‖·norm[j]·(1+δ) < t, the worst kept score: by Cauchy–Schwarz,
// with δ = 4(R+2)·2⁻⁵² covering the rounding of the dot products and
// of the bound, every row from j on scores below t (DESIGN.md §3h). The
// test needs a finite ‖q‖, t ≥ 2⁻⁹⁰⁰ (so underflow stays far below
// δ·t) and no NaN in the heap; otherwise every row is scored.
func (w *shardWorker) scan(h []Result, q []float64, k int) ([]Result, int) {
	k = min(k, len(w.idx))
	qm := matrix.Matrix{Rows: 1, Cols: len(q), Data: q}
	qn, slack := normBound(q), 1+4*float64(len(q)+2)*0x1p-52
	cut := qn <= math.MaxFloat64
	j := 0
	for ; j < len(w.idx); j += scanBlock {
		if cut && len(h) == k && h[0].Score >= 0x1p-900 && qn*w.norm[j]*slack < h[0].Score {
			break
		}
		end := min(j+scanBlock, len(w.idx))
		blk := matrix.Matrix{Rows: end - j, Cols: qm.Cols, Data: w.rows.Data[j*qm.Cols : end*qm.Cols]}
		w.scores.Cols, w.scores.Data = end-j, w.scores.Data[:end-j]
		matrix.MulBTInto(&w.scores, &qm, &blk)
		for c, s := range w.scores.Data {
			r := Result{Index: w.idx[j+c], Score: s}
			if len(h) < k {
				cut = cut && !math.IsNaN(s)
				h = append(h, r)
				siftUp(h, len(h)-1)
			} else if !(s < h[0].Score) && better(r, h[0]) {
				h[0] = r
				siftDown(h, 0, k)
			}
		}
	}
	return sortHeap(h), min(j, len(w.idx))
}

// offerZeros inserts the shard's all-zero rows, each scoring z, into
// part (the compact rows' top-k, best first) under better. The zero
// rows tie one another and come in ascending index, so only the first
// k can rank, and once one is refused every later one would be too.
func (w *shardWorker) offerZeros(part []Result, z float64, k int) []Result {
	for _, o := range w.zeros[:min(k, len(w.zeros))] {
		r := Result{Index: o, Score: z}
		if len(part) == k && !better(r, part[k-1]) {
			break
		}
		i := min(len(part), k-1) // a full part drops its worst entry
		part = append(part[:i], r)
		for ; i > 0 && better(r, part[i-1]); i-- {
			part[i] = part[i-1]
		}
		part[i] = r
	}
	return part
}

// complete merges each request's per-shard partials into its final
// ranking and wakes the caller. Runs on whichever worker finished the
// batch last; the dispatcher has already moved on to the next batch.
func (s *Server) complete(b *batch) {
	shards := len(s.workers)
	for i, req := range b.reqs {
		b.mergeParts = b.mergeParts[:0]
		for sh := 0; sh < shards; sh++ {
			b.mergeParts = append(b.mergeParts, b.partials[i*shards+sh])
		}
		req.results, b.heads, b.pos = MergeTopK(req.results[:0], b.mergeParts, req.k, b.heads, b.pos)
		req.err = nil
		req.done <- struct{}{}
	}
	s.freeBatches <- b
}

// TopKObjects ranks the k strongest objects for a (subject, predicate)
// pair — the model's answer to "which objects complete this triple".
// Results are appended to dst (pass a reused buffer with cap ≥ k for a
// zero-allocation hit path) best first, ties broken by lower index.
func (s *Server) TopKObjects(subject, predicate int64, k int, dst []Result) ([]Result, error) {
	if err := s.model.validQuery(subject, predicate); err != nil {
		return dst[:0], err
	}
	if k > s.model.Objects() {
		k = s.model.Objects()
	}
	if k <= 0 {
		return dst[:0], nil
	}
	s.queries.Add(1)
	key := qkey{subject: subject, predicate: predicate, k: k}
	st := s.stripes[key.hash()%uint64(len(s.stripes))]

	res, cached, fl, leader := st.lookup(key, dst)
	if cached {
		return res, nil
	}
	if !leader {
		<-fl.done
		if fl.err != nil {
			return dst[:0], fl.err
		}
		return append(dst[:0], fl.results...), nil
	}

	req := s.reqPool.Get().(*request)
	req.subject, req.predicate, req.k = subject, predicate, k
	s.queue <- req
	<-req.done
	dst = append(dst[:0], req.results...)
	err := req.err
	st.finish(key, fl, req.results, err)
	s.reqPool.Put(req)
	if err != nil {
		return dst[:0], err
	}
	return dst, nil
}

// Membership ranks the k latent components an entity loads most
// heavily on — the concept-membership lookup of the paper's knowledge
// base application. Scores are absolute factor loadings; the ranking
// is unaffected by the §IV-C row normalization (a per-row constant)
// and needs no sharding at rank-sized cost.
func (s *Server) Membership(entity int64, k int, dst []Result) ([]Result, error) {
	obj := s.model.Factor(1)
	if entity < 0 || entity >= int64(obj.Rows) {
		return dst[:0], fmt.Errorf("serve: entity %d out of range [0, %d)", entity, obj.Rows)
	}
	row := obj.Row(int(entity))
	bufp := s.scorePool.Get().(*[]float64)
	buf := *bufp
	if cap(buf) < len(row) {
		buf = make([]float64, len(row))
	}
	buf = buf[:len(row)]
	for i, v := range row {
		if v < 0 {
			v = -v
		}
		buf[i] = v
	}
	dst = SelectTopK(dst[:0], buf, 0, k)
	*bufp = buf
	s.scorePool.Put(bufp)
	return dst, nil
}

// ConceptMembers ranks the k entities that load most heavily on one
// latent component, normalized per row against dominant entities
// exactly as the paper's discovery tables are (§IV-C). This is the
// inverse of Membership and what the end-to-end test checks against
// internal/gen's planted concepts.
func (s *Server) ConceptMembers(component int, k int, dst []Result) ([]Result, error) {
	obj := s.model.Factor(1)
	if component < 0 || component >= obj.Cols {
		return dst[:0], fmt.Errorf("serve: component %d out of range [0, %d)", component, obj.Cols)
	}
	bufp := s.scorePool.Get().(*[]float64)
	var res []Result
	res, *bufp = ColumnTopK(dst[:0], obj, component, s.model.RowTotals(1), k, *bufp)
	s.scorePool.Put(bufp)
	return res, nil
}

// Stats is a snapshot of the server's traffic counters. Counters are
// about observability, never behavior: the determinism invariant lets
// them vary run to run while rankings stay bit-identical.
type Stats struct {
	Queries     uint64 // TopKObjects calls admitted
	CacheHits   uint64 // served from an LRU stripe
	CacheMisses uint64 // computed as a single-flight leader
	Coalesced   uint64 // followers that waited on a leader's flight
	Batches     uint64 // dispatches to the shard workers
	BatchedReqs uint64 // requests carried by those dispatches
	RowsScored  uint64 // compact object rows put through the kernel

	Shards    int
	CacheSize int // per-stripe LRU capacity
	MaxBatch  int
}

// BatchOccupancy is the mean number of requests per dispatched batch.
func (st Stats) BatchOccupancy() float64 {
	if st.Batches == 0 {
		return 0
	}
	return float64(st.BatchedReqs) / float64(st.Batches)
}

// HitRate is the fraction of admitted queries served from cache.
func (st Stats) HitRate() float64 {
	if st.Queries == 0 {
		return 0
	}
	return float64(st.CacheHits) / float64(st.Queries)
}

// Stats returns a snapshot of the traffic counters.
func (s *Server) Stats() Stats {
	st := Stats{
		Queries:     s.queries.Load(),
		Batches:     s.batches.Load(),
		BatchedReqs: s.batchedReqs.Load(),
		RowsScored:  s.rowsScored.Load(),
		Shards:      s.cfg.Shards,
		CacheSize:   s.cfg.CacheSize,
		MaxBatch:    s.cfg.MaxBatch,
	}
	for _, sp := range s.stripes {
		h, m, c := sp.stats()
		st.CacheHits += h
		st.CacheMisses += m
		st.Coalesced += c
	}
	return st
}

package serve

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/haten2/haten2/internal/baseline"
	"github.com/haten2/haten2/internal/matrix"
	"github.com/haten2/haten2/internal/tensor"
)

// testParafac builds a small seeded PARAFAC model plus the raw pieces
// the baseline scorer consumes.
func testParafac(seed int64, subjects, objects, predicates, rank int) ([]float64, [3]*matrix.Matrix, *Model) {
	rng := rand.New(rand.NewSource(seed))
	factors := [3]*matrix.Matrix{
		matrix.Random(subjects, rank, rng),
		matrix.Random(objects, rank, rng),
		matrix.Random(predicates, rank, rng),
	}
	lambda := make([]float64, rank)
	for r := range lambda {
		lambda[r] = 0.5 + rng.Float64()*3
	}
	m, err := NewParafacModel(lambda, factors)
	if err != nil {
		panic(err)
	}
	return lambda, factors, m
}

func testTucker(seed int64, subjects, objects, predicates int, dims [3]int) (*tensor.Dense, [3]*matrix.Matrix, *Model) {
	rng := rand.New(rand.NewSource(seed))
	factors := [3]*matrix.Matrix{
		matrix.Random(subjects, dims[0], rng),
		matrix.Random(objects, dims[1], rng),
		matrix.Random(predicates, dims[2], rng),
	}
	core := tensor.NewDense(int64(dims[0]), int64(dims[1]), int64(dims[2]))
	for i := range core.Data {
		core.Data[i] = rng.NormFloat64()
	}
	m, err := NewTuckerModel(core, factors)
	if err != nil {
		panic(err)
	}
	return core, factors, m
}

func sameAsBaseline(t *testing.T, got []Result, want []baseline.TopKResult, ctx string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d results, want %d", ctx, len(got), len(want))
	}
	for i := range got {
		if got[i].Index != want[i].Index ||
			math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s: rank %d diverged: got (%d, %x) want (%d, %x)",
				ctx, i, got[i].Index, math.Float64bits(got[i].Score),
				want[i].Index, math.Float64bits(want[i].Score))
		}
	}
}

// hypersparse zeroes factor rows the way a knowledge base leaves
// entities with empty slices: the first quarter of the objects (an
// all-zero shard at 4 and 16 shards), all but two rows of the second
// quarter (shards with fewer nonzero rows than k), every third object,
// and subjects 0 and 5 (all-zero queries, where every score ties and
// the answer is the lowest k indexes). Predicate 1 is made negative, so
// a PARAFAC query through it scores every nonzero object below zero and
// the zero rows rank first.
func hypersparse(factors [3]*matrix.Matrix) {
	obj := factors[1]
	n := obj.Rows
	for o := 0; o < n; o++ {
		if o < n/2 && o != n/4+3 && o != n/2-2 || o%3 == 0 {
			clear(obj.Row(o))
		}
	}
	clear(factors[0].Row(0))
	clear(factors[0].Row(5))
	for r, v := range factors[2].Row(1) {
		factors[2].Row(1)[r] = -math.Abs(v)
	}
}

type servedQuery struct {
	s, p int64
	k    int
}

// checkServedMatrix is the acceptance-criteria matrix: rankings must be
// bit-identical to the single-threaded baseline scorer's want across
// GOMAXPROCS {1,4,16} × shard counts {1,4,16} × cache {off, 64}, with
// batching active and every query issued in two passes so that, with
// the cache on, the second pass is served from it. The second pass asks
// each query twice in a row, so its repeat is a hit even when the query
// list outgrows a stripe and the first ask was evicted.
func checkServedMatrix(t *testing.T, name string, model *Model, queries []servedQuery, want [][]baseline.TopKResult) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4, 16} {
		runtime.GOMAXPROCS(procs)
		for _, shards := range []int{1, 4, 16} {
			for _, cache := range []int{0, 64} {
				srv, err := New(model, Config{Shards: shards, CacheSize: cache, NoCache: cache == 0, MaxBatch: 8})
				if err != nil {
					t.Fatal(err)
				}
				for pass := 0; pass < 2; pass++ {
					// got[rep][i] is the answer to the rep-th ask of query i.
					got := [2][][]Result{make([][]Result, len(queries)), make([][]Result, len(queries))}
					var wg sync.WaitGroup
					const clients = 7
					wg.Add(clients)
					for c := 0; c < clients; c++ {
						go func(c int) {
							defer wg.Done()
							for i := c; i < len(queries); i += clients {
								for rep := 0; rep <= pass; rep++ {
									res, err := srv.TopKObjects(queries[i].s, queries[i].p, queries[i].k, nil)
									if err != nil {
										t.Error(err)
										return
									}
									got[rep][i] = res
								}
							}
						}(c)
					}
					wg.Wait()
					for rep := 0; rep <= pass; rep++ {
						for i, q := range queries {
							sameAsBaseline(t, got[rep][i], want[i], fmt.Sprintf("%s procs=%d shards=%d cache=%d pass %d ask %d query %v", name, procs, shards, cache, pass, rep, q))
						}
					}
				}
				if st := srv.Stats(); (st.CacheHits > 0) != (cache > 0) {
					t.Errorf("%s procs=%d shards=%d cache=%d: %d cache hits after a repeated pass", name, procs, shards, cache, st.CacheHits)
				}
				srv.Close()
			}
		}
	}
}

// TestServedRankingsBitIdenticalParafac runs the matrix on a dense
// model and on its hypersparse copy, with every tenth query asking for
// more than Objects() results.
func TestServedRankingsBitIdenticalParafac(t *testing.T) {
	const (
		subjects, objects, predicates = 37, 211, 11
		rank                          = 7
	)
	rng := rand.New(rand.NewSource(7))
	queries := make([]servedQuery, 300)
	for i := range queries {
		queries[i] = servedQuery{int64(rng.Intn(subjects)), int64(rng.Intn(predicates)), 9}
		if i%10 == 0 {
			queries[i].k = objects + 3
		}
	}
	for _, sparse := range []bool{false, true} {
		lambda, factors, model := testParafac(42, subjects, objects, predicates, rank)
		if sparse {
			hypersparse(factors)
			var err error
			if model, err = NewParafacModel(lambda, factors); err != nil {
				t.Fatal(err)
			}
		}
		want := make([][]baseline.TopKResult, len(queries))
		for i, q := range queries {
			want[i] = baseline.ParafacTopKObjects(lambda, factors, q.s, q.p, q.k)
		}
		checkServedMatrix(t, fmt.Sprintf("parafac sparse=%v", sparse), model, queries, want)
	}
}

// TestServedRankingsBitIdenticalTucker runs the matrix over every
// subject × predicate pair at k = 6, plus each subject once with k
// above Objects(), on a dense model and on its hypersparse copy.
func TestServedRankingsBitIdenticalTucker(t *testing.T) {
	const subjects, objects, predicates = 19, 83, 9
	var queries []servedQuery
	for s := int64(0); s < subjects; s++ {
		for p := int64(0); p < predicates; p++ {
			queries = append(queries, servedQuery{s, p, 6})
		}
		queries = append(queries, servedQuery{s, s % predicates, objects + 3})
	}
	for _, sparse := range []bool{false, true} {
		core, factors, model := testTucker(99, subjects, objects, predicates, [3]int{4, 5, 3})
		if sparse {
			hypersparse(factors)
			var err error
			if model, err = NewTuckerModel(core, factors); err != nil {
				t.Fatal(err)
			}
		}
		want := make([][]baseline.TopKResult, len(queries))
		for i, q := range queries {
			want[i] = baseline.TuckerTopKObjects(core, factors, q.s, q.p, q.k)
		}
		checkServedMatrix(t, fmt.Sprintf("tucker sparse=%v", sparse), model, queries, want)
	}
}

func TestServerValidation(t *testing.T) {
	_, _, model := testParafac(1, 5, 7, 3, 2)
	srv, err := New(model, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := srv.TopKObjects(5, 0, 3, nil); err == nil {
		t.Error("out-of-range subject accepted")
	}
	if _, err := srv.TopKObjects(0, -1, 3, nil); err == nil {
		t.Error("out-of-range predicate accepted")
	}
	if res, err := srv.TopKObjects(0, 0, 0, nil); err != nil || len(res) != 0 {
		t.Errorf("k=0: %v, %v", res, err)
	}
	// k beyond the object universe is clamped, not an error.
	res, err := srv.TopKObjects(0, 0, 100, nil)
	if err != nil || len(res) != 7 {
		t.Errorf("clamped k: %d results, err %v", len(res), err)
	}
	if _, err := srv.Membership(99, 3, nil); err == nil {
		t.Error("out-of-range entity accepted")
	}
	if _, err := srv.ConceptMembers(-1, 3, nil); err == nil {
		t.Error("out-of-range component accepted")
	}
	if _, err := New(nil, Config{}); err == nil {
		t.Error("nil model accepted")
	}
	// A zero CacheSize is the default, not "no cache"; NoCache is.
	for _, tc := range []struct {
		cfg  Config
		want int
	}{{Config{}, 1024}, {Config{NoCache: true}, 0}} {
		s, err := New(model, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Stats().CacheSize; got != tc.want {
			t.Errorf("%+v: CacheSize %d, want %d", tc.cfg, got, tc.want)
		}
		s.Close()
	}
}

// TestCloseJoinsGoroutines pins that Close joins the dispatcher and
// every shard worker: after New, a few queries and Close, the goroutine
// count is back at the warmed-up baseline the moment Close returns. One
// P means a goroutine Close failed to join cannot run, let alone exit,
// before the count is read, so the check needs no settling time and
// cannot pass by luck.
func TestCloseJoinsGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	_, _, model := testParafac(9, 8, 40, 5, 3)
	cycle := func() {
		srv, err := New(model, Config{Shards: 4, CacheSize: 4, MaxBatch: 2})
		if err != nil {
			t.Fatal(err)
		}
		for q := int64(0); q < 6; q++ {
			if _, err := srv.TopKObjects(q, q%5, 3, nil); err != nil {
				t.Fatal(err)
			}
		}
		srv.Close()
	}
	cycle() // warm up lazy runtime machinery before taking the baseline
	// Sleep so that goroutines the warm-up failed to join have exited
	// and are not counted in the baseline.
	time.Sleep(50 * time.Millisecond)
	before := runtime.NumGoroutine()
	for i := 0; i < 8; i++ {
		cycle()
		if n := runtime.NumGoroutine(); n > before {
			buf := make([]byte, 1<<20)
			t.Fatalf("cycle %d: %d goroutines outlive Close (baseline %d)\n%s",
				i, n-before, before, buf[:runtime.Stack(buf, true)])
		}
	}
}

func TestMembershipMatchesFactorRow(t *testing.T) {
	_, factors, model := testParafac(3, 6, 9, 4, 5)
	srv, err := New(model, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	obj := factors[1]
	for e := int64(0); e < int64(obj.Rows); e++ {
		got, err := srv.Membership(e, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		scores := make([]float64, obj.Cols)
		for r := 0; r < obj.Cols; r++ {
			scores[r] = math.Abs(obj.At(int(e), r))
		}
		want := sortTopK(scores, 0, 3)
		if !resultsEqual(got, want) {
			t.Fatalf("entity %d: got %v want %v", e, got, want)
		}
	}
}

// TestSingleFlight pins the coalescing semantics: many concurrent
// identical queries on a cold cache must produce exactly one miss, with
// the rest either coalesced onto the leader's flight or served from the
// cache the leader filled.
func TestSingleFlight(t *testing.T) {
	_, _, model := testParafac(5, 11, 301, 7, 6)
	srv, err := New(model, Config{Shards: 4, CacheSize: 16, MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const clients = 32
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func() {
			defer wg.Done()
			if _, err := srv.TopKObjects(3, 2, 5, nil); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	st := srv.Stats()
	if st.CacheMisses != 1 {
		t.Errorf("misses = %d, want exactly 1 (single flight)", st.CacheMisses)
	}
	if st.CacheHits+st.Coalesced != clients-1 {
		t.Errorf("hits %d + coalesced %d ≠ %d", st.CacheHits, st.Coalesced, clients-1)
	}
	if got := st.HitRate(); got < 0 || got > 1 {
		t.Errorf("hit rate %f out of range", got)
	}
}

func TestLRUEvicts(t *testing.T) {
	c := newLRU(2)
	c.put(qkey{1, 0, 3}, []Result{{Index: 1}})
	c.put(qkey{2, 0, 3}, []Result{{Index: 2}})
	if _, ok := c.get(qkey{1, 0, 3}); !ok {
		t.Fatal("entry 1 missing")
	}
	// 2 is now LRU; inserting 3 must evict it.
	c.put(qkey{3, 0, 3}, []Result{{Index: 3}})
	if _, ok := c.get(qkey{2, 0, 3}); ok {
		t.Fatal("entry 2 not evicted")
	}
	for _, want := range []int64{1, 3} {
		if r, ok := c.get(qkey{want, 0, 3}); !ok || r[0].Index != want {
			t.Fatalf("entry %d lost", want)
		}
	}
	// Re-putting an existing key refreshes in place.
	c.put(qkey{1, 0, 3}, []Result{{Index: 10}})
	if r, _ := c.get(qkey{1, 0, 3}); r[0].Index != 10 {
		t.Fatal("refresh failed")
	}
}

// TestSteadyStateAllocs pins the acceptance criterion: the warm query
// path must do ≤ 0.1 allocations per query. With the result cached and
// the caller reusing its destination buffer, a query is a hash, one
// stripe lock, and a copy — nothing allocates. Membership and
// ConceptMembers are held to the same budget: their score scratch comes
// from the server's pool, so a lookup that forgets to give it back
// allocates on every call.
func TestSteadyStateAllocs(t *testing.T) {
	_, _, model := testParafac(8, 23, 501, 13, 8)
	srv, err := New(model, Config{Shards: 4, CacheSize: 64, MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const k = 10
	dst := make([]Result, 0, k)
	// Warm up: populate the cache and the request pool.
	for i := 0; i < 3; i++ {
		if dst, err = srv.TopKObjects(5, 7, k, dst); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		dst, _ = srv.TopKObjects(5, 7, k, dst)
	})
	// The unsharded lookups rank in the server's pooled score scratch.
	lookups := []struct {
		name string
		call func() ([]Result, error)
	}{
		{"Membership", func() ([]Result, error) { return srv.Membership(11, 3, dst) }},
		{"ConceptMembers", func() ([]Result, error) { return srv.ConceptMembers(2, k, dst) }},
	}
	lookupAllocs := make([]float64, len(lookups))
	for i, l := range lookups {
		if dst, err = l.call(); err != nil {
			t.Fatalf("%s: %v", l.name, err)
		}
		lookupAllocs[i] = testing.AllocsPerRun(200, func() { dst, _ = l.call() })
	}

	// The cold path is allowed its single-flight bookkeeping (one
	// flight struct + channel per miss) but must stay bounded — the
	// batch, score panels, and request are all pooled — and offering a
	// shard's zero rows must allocate nothing: the hypersparse model's
	// misses allocate no more than the dense model's.
	missAllocs := func(model *Model) float64 {
		var s int64
		missSrv, err := New(model, Config{Shards: 4, MaxBatch: 8, NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		defer missSrv.Close()
		for i := 0; i < 5; i++ {
			if dst, err = missSrv.TopKObjects(s, 1, k, dst); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(200, func() {
			s = (s + 1) % 23
			dst, _ = missSrv.TopKObjects(s, 1, k, dst)
		})
	}
	dense := missAllocs(model)
	lambda, factors, _ := testParafac(8, 23, 501, 13, 8)
	hypersparse(factors)
	sparseModel, err := NewParafacModel(lambda, factors)
	if err != nil {
		t.Fatal(err)
	}
	sparse := missAllocs(sparseModel)
	if raceEnabled {
		// The race detector makes sync.Pool drop a quarter of its Puts.
		t.Logf("allocs/query under -race (not asserted): hit %.3f, dense miss %.1f, hypersparse miss %.1f, lookups %.3f", avg, dense, sparse, lookupAllocs)
		return
	}
	if avg > 0.1 {
		t.Errorf("steady-state allocs/query = %.3f, want ≤ 0.1", avg)
	}
	for i, l := range lookups {
		if lookupAllocs[i] > 0.1 {
			t.Errorf("steady-state %s allocs/call = %.3f, want ≤ 0.1", l.name, lookupAllocs[i])
		}
	}
	if dense > 8 {
		t.Errorf("miss-path allocs/query = %.1f, want small and bounded", dense)
	}
	if sparse > dense {
		t.Errorf("miss-path allocs/query = %.1f on the hypersparse model, %.1f on the dense one", sparse, dense)
	}
}

// TestNonFiniteModelRejected pins the robustness policy: a NaN or ±Inf
// λ, core cell or factor entry is refused with an *ErrNonFinite naming
// where it sits, never served.
func TestNonFiniteModelRejected(t *testing.T) {
	check := func(name string, err error, part string, mode int, at []int) {
		t.Helper()
		var nf *ErrNonFinite
		if !errors.As(err, &nf) {
			t.Fatalf("%s: err = %v, want *ErrNonFinite", name, err)
		}
		if nf.Part != part || nf.Mode != mode || !slices.Equal(nf.At, at) || !(math.IsNaN(nf.Value) || math.IsInf(nf.Value, 0)) {
			t.Fatalf("%s: got %+v, want %s mode %d at %v", name, nf, part, mode, at)
		}
	}
	t.Run("lambda", func(t *testing.T) {
		lambda, factors, _ := testParafac(1, 4, 5, 3, 3)
		lambda[2] = math.Inf(1)
		_, err := NewParafacModel(lambda, factors)
		check("lambda", err, "lambda", -1, []int{2})
	})
	t.Run("factor", func(t *testing.T) {
		lambda, factors, _ := testParafac(1, 4, 5, 3, 3)
		factors[1].Set(3, 1, math.NaN())
		_, err := NewParafacModel(lambda, factors)
		check("parafac factor", err, "factor", 1, []int{3, 1})
		core, tfactors, _ := testTucker(2, 4, 5, 3, [3]int{2, 3, 2})
		tfactors[2].Set(2, 0, math.Inf(-1))
		_, err = NewTuckerModel(core, tfactors)
		check("tucker factor", err, "factor", 2, []int{2, 0})
	})
	t.Run("core", func(t *testing.T) {
		core, factors, _ := testTucker(2, 4, 5, 3, [3]int{2, 3, 2})
		core.Set(math.NaN(), 1, 2, 0)
		_, err := NewTuckerModel(core, factors)
		check("core", err, "core", -1, []int{1, 2, 0})
	})
}

// TestOverflowScoresNeverPanic pins the one NaN still reachable: a
// finite model whose query vector overflows. Its scores may be ±Inf or
// NaN, and the ranking is whatever order the heap produces — but every
// query returns k results and nothing panics.
func TestOverflowScoresNeverPanic(t *testing.T) {
	lambda, factors, _ := testParafac(3, 6, 40, 3, 3)
	lambda[0] = math.MaxFloat64
	factors[0].Set(1, 0, 4)
	hypersparse(factors)
	model, err := NewParafacModel(lambda, factors)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(model, Config{Shards: 4, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for p := int64(0); p < 3; p++ {
		if res, err := srv.TopKObjects(1, p, 5, nil); err != nil || len(res) != 5 {
			t.Fatalf("predicate %d: %d results, err %v", p, len(res), err)
		}
	}
}

// FuzzServeShards drives the production shard path — compaction in
// norm order, the zero-query answer, the blocked scan with its cut-off,
// the zero-row offer and the cross-shard merge — on a fuzzed object
// factor with a fuzzed set of all-zero rows, shard count, k and query,
// and requires the served ranking to equal the baseline scorer's at
// Float64bits.
//
// Input: k, shards, rank R, a query exponent e, the R query values,
// then one row per R+1 bytes: a flag (odd: an all-zero row) and R
// values. Each value byte is a small signed multiple of 1/16 (0x80 is
// −0) and the query values are scaled by 2^(−10·(e mod 64)), so scores
// are exact unless they underflow, tie often, and never overflow.
func FuzzServeShards(f *testing.F) {
	// An all-zero factor; one nonzero row (scoring below zero) and k
	// above the nonzero count; then mixed signs, a naturally zero row,
	// a −0 row and ties.
	f.Add([]byte{5, 3, 1, 0, 16, 240, 1, 7, 7, 1, 7, 7, 1, 7, 7, 1, 7, 7, 1, 7, 7, 1, 7, 7})
	f.Add([]byte{4, 1, 1, 0, 16, 16, 1, 0, 0, 0, 240, 3, 1, 5, 5, 1, 5, 5})
	f.Add([]byte{9, 2, 2, 0, 255, 3, 0, 0, 4, 2, 1, 0, 0, 0, 0, 0, 0x80, 0x80, 0x80, 1, 3, 3, 3, 0, 250, 1, 3, 0, 7, 7, 7})
	// An all-zero query (+0, −0) against nonzero rows of both signs:
	// every object ties at +0, so the answer is the lowest indexes.
	f.Add([]byte{4, 2, 1, 0, 0, 0x80, 0, 16, 240, 0, 240, 16, 1, 3, 3, 0, 5, 251, 0, 1, 1})
	// Query (1, 0) against 64 rows (1, 1) and then row 0 = (1, 0), on one
	// shard: row 0 has the smallest norm, so it is scored in the second
	// block, and it ties the k-th score exactly with a lower index.
	tie := []byte{3, 0, 1, 0, 16, 0, 0, 16, 0}
	for i := 0; i < 64; i++ {
		tie = append(tie, 0, 16, 16)
	}
	f.Add(tie)
	// Query entries of 2⁻⁵⁵⁰, whose squares underflow to zero, against
	// an all-zero row 0 and a positive row 1: the query is not all zero,
	// and row 1 ranks first.
	f.Add([]byte{1, 0, 1, 55, 16, 16, 1, 0, 0, 0, 16, 16})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		k, shards, r := int(data[0]%24), int(data[1]%6)+1, int(data[2]%4)+1
		scale := math.Ldexp(1, -10*int(data[3]%64))
		data = data[4:]
		value := func(b byte) float64 {
			if b == 0x80 {
				return math.Copysign(0, -1)
			}
			return float64(int8(b)) / 16
		}
		if len(data) < r+r+1 {
			return
		}
		subj, pred, obj := matrix.New(1, r), matrix.New(1, r), matrix.New((len(data)-r)/(r+1), r)
		lambda := make([]float64, r)
		for c := 0; c < r; c++ {
			subj.Data[c], pred.Data[c], lambda[c] = value(data[c]), scale, 1
		}
		data = data[r:]
		for o := 0; o < obj.Rows; o++ {
			row := data[o*(r+1) : (o+1)*(r+1)]
			if row[0]%2 == 1 {
				continue
			}
			for c := 0; c < r; c++ {
				obj.Set(o, c, value(row[1+c]))
			}
		}
		factors := [3]*matrix.Matrix{subj, obj, pred}
		model, err := NewParafacModel(lambda, factors)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := New(model, Config{Shards: shards, NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		got, err := srv.TopKObjects(0, 0, k, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameAsBaseline(t, got, baseline.ParafacTopKObjects(lambda, factors, 0, 0, k), fmt.Sprintf("k=%d shards=%d rows=%d", k, shards, obj.Rows))
	})
}

func BenchmarkServeCachedQuery(b *testing.B) {
	_, _, model := testParafac(8, 100, 5000, 20, 10)
	srv, err := New(model, Config{Shards: 4, CacheSize: 256, MaxBatch: 16})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	const k = 10
	dst := make([]Result, 0, k)
	if dst, err = srv.TopKObjects(1, 2, k, dst); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, _ = srv.TopKObjects(1, 2, k, dst)
	}
}

func BenchmarkServeUncachedQuery(b *testing.B) {
	lambda, factors, model := testParafac(8, 100, 5000, 20, 10)
	const k = 10
	b.Run("served", func(b *testing.B) {
		srv, err := New(model, Config{Shards: 4, MaxBatch: 16, NoCache: true})
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		dst := make([]Result, 0, k)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dst, _ = srv.TopKObjects(int64(i%100), int64(i%20), k, dst)
		}
	})
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			baseline.ParafacTopKObjects(lambda, factors, int64(i%100), int64(i%20), k)
		}
	})
}

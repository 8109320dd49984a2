package serve

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

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

// TestServedRankingsBitIdenticalParafac is the acceptance-criteria
// matrix: rankings must be bit-identical to the single-threaded
// baseline scorer across GOMAXPROCS {1,4,16} × shard counts {1,4,16} ×
// cache {off, 64}, with batching active and every query issued twice so
// that, with the cache on, the second pass is served from it.
func TestServedRankingsBitIdenticalParafac(t *testing.T) {
	const (
		subjects, objects, predicates = 37, 211, 11
		rank                          = 7
		k                             = 9
	)
	lambda, factors, model := testParafac(42, subjects, objects, predicates, rank)

	type query struct{ s, p int64 }
	rng := rand.New(rand.NewSource(7))
	queries := make([]query, 300)
	for i := range queries {
		queries[i] = query{int64(rng.Intn(subjects)), int64(rng.Intn(predicates))}
	}
	want := make([][]baseline.TopKResult, len(queries))
	for i, q := range queries {
		want[i] = baseline.ParafacTopKObjects(lambda, factors, q.s, q.p, k)
	}

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
					got := make([][]Result, len(queries))
					var wg sync.WaitGroup
					const clients = 7
					wg.Add(clients)
					for c := 0; c < clients; c++ {
						go func(c int) {
							defer wg.Done()
							for i := c; i < len(queries); i += clients {
								res, err := srv.TopKObjects(queries[i].s, queries[i].p, k, nil)
								if err != nil {
									t.Error(err)
									return
								}
								got[i] = res
							}
						}(c)
					}
					wg.Wait()
					for i := range queries {
						sameAsBaseline(t, got[i], want[i], "parafac")
					}
				}
				if st := srv.Stats(); (st.CacheHits > 0) != (cache > 0) {
					t.Errorf("procs=%d shards=%d cache=%d: %d cache hits after a repeated pass", procs, shards, cache, st.CacheHits)
				}
				srv.Close()
			}
		}
	}
}

func TestServedRankingsBitIdenticalTucker(t *testing.T) {
	const (
		subjects, objects, predicates = 19, 83, 9
		k                             = 6
	)
	core, factors, model := testTucker(99, subjects, objects, predicates, [3]int{4, 5, 3})
	srv, err := New(model, Config{Shards: 4, MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var dst []Result
	for s := int64(0); s < subjects; s++ {
		for p := int64(0); p < predicates; p++ {
			dst, err = srv.TopKObjects(s, p, k, dst)
			if err != nil {
				t.Fatal(err)
			}
			sameAsBaseline(t, dst, baseline.TuckerTopKObjects(core, factors, s, p, k), "tucker")
		}
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
// stripe lock, and a copy — nothing allocates.
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
	if avg > 0.1 {
		t.Errorf("steady-state allocs/query = %.3f, want ≤ 0.1", avg)
	}

	// The cold path is allowed its single-flight bookkeeping (one
	// flight struct + channel per miss) but must stay bounded — the
	// batch, score panels, and request are all pooled.
	var s int64
	missSrv, err := New(model, Config{Shards: 4, MaxBatch: 8, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	defer missSrv.Close()
	for i := 0; i < 5; i++ {
		if dst, err = missSrv.TopKObjects(s, 3, k, dst); err != nil {
			t.Fatal(err)
		}
	}
	avg = testing.AllocsPerRun(200, func() {
		s = (s + 1) % 23
		dst, _ = missSrv.TopKObjects(s, 3, k, dst)
	})
	if avg > 8 {
		t.Errorf("miss-path allocs/query = %.1f, want small and bounded", avg)
	}
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

package main

import (
	"math/rand"
	"sort"
	"sync"

	"github.com/haten2/haten2/internal/serve"
)

// loadResult is one closed-loop serve phase.
type loadResult struct {
	// Wall is the whole phase, warm-up included; TimedWall spans the
	// first timed query's start to the last one's end.
	Wall, TimedWall float64
	// Latencies holds one entry per timed query, in seconds, ascending.
	Latencies []float64
	Queries   int // issued, warm-up included
}

func (l *loadResult) qps() float64 { return float64(len(l.Latencies)) / l.TimedWall }

// closedLoop drives w.Queries top-k queries at srv from serveClients
// goroutines, each issuing its next query only when the previous answer
// has arrived: callers of a factor server wait for their reply, so a
// slow server receives less load rather than a growing queue. Two
// clients are the fewest that exercise batching and miss coalescing,
// and no more than the host has cores. The first tenth of each client's
// queries is warm-up (cache fill, pool growth) and is not timed.
// Latencies go into buffers sized beforehand so that measuring does not
// allocate on the timed path.
func closedLoop(srv *serve.Server, w workload, seed int64, subjects, predicates int64) (*loadResult, error) {
	per := w.Queries / serveClients
	warm := per / 10
	lats := make([][]float64, serveClients)
	begin := make([]float64, serveClients)
	end := make([]float64, serveClients)
	errs := make([]error, serveClients)
	for c := range lats {
		lats[c] = make([]float64, 0, per-warm)
	}
	var wg sync.WaitGroup
	wg.Add(serveClients)
	t0 := now()
	for c := 0; c < serveClients; c++ {
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(c)*7919))
			var zipf *rand.Zipf
			if !w.Uniform {
				zipf = rand.NewZipf(rng, 1.2, 1, w.Users-1)
			}
			dst := make([]serve.Result, 0, topK)
			for i := 0; i < per; i++ {
				var s, p int64
				if w.Uniform {
					s, p = rng.Int63n(subjects), rng.Int63n(predicates)
				} else {
					s, p = userQuery(zipf.Uint64(), subjects, predicates)
				}
				if i == warm {
					begin[c] = since(t0)
				}
				q0 := now()
				var err error
				dst, err = srv.TopKObjects(s, p, topK, dst)
				if i >= warm {
					lats[c] = append(lats[c], since(q0))
				}
				if err != nil {
					errs[c] = err
					return
				}
			}
			end[c] = since(t0)
		}(c)
	}
	wg.Wait()
	res := &loadResult{Wall: since(t0), Queries: per * serveClients}
	first, last := begin[0], end[0]
	for c := range lats {
		if errs[c] != nil {
			return nil, errs[c]
		}
		first, last = min(first, begin[c]), max(last, end[c])
		res.Latencies = append(res.Latencies, lats[c]...)
	}
	res.TimedWall = last - first
	sort.Float64s(res.Latencies)
	return res, nil
}

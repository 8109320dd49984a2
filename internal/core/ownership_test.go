package core

import (
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"github.com/haten2/haten2/internal/mr"
)

// ownershipRuns is every full ALS run the lending test drives: each
// decomposition at each plan and order it runs at, and masked PARAFAC,
// whose restaging deletes and rewrites the staged tensor every
// iteration.
func ownershipRuns() map[string]func(c *mr.Cluster) error {
	rng := rand.New(rand.NewSource(44))
	x3 := randomSparse(rng, [3]int64{20, 16, 12}, 600)
	x4 := random4Way(rng, [4]int64{9, 8, 7, 6}, 300)
	runs := map[string]func(c *mr.Cluster) error{}
	for _, v := range Variants {
		opt := Options{Variant: v, MaxIters: 2, Seed: 3}
		runs["parafac3/"+v.String()] = func(c *mr.Cluster) error {
			_, err := ParafacALS(c, x3, 3, opt)
			return err
		}
		runs["tucker3/"+v.String()] = func(c *mr.Cluster) error {
			_, err := TuckerALS(c, x3, []int{3, 2, 2}, opt)
			return err
		}
		if planRuns(v, 4) != nil {
			continue
		}
		runs["parafac4/"+v.String()] = func(c *mr.Cluster) error {
			_, err := ParafacALS(c, x4, 2, opt)
			return err
		}
		runs["tucker4/"+v.String()] = func(c *mr.Cluster) error {
			_, err := TuckerALS(c, x4, []int{2, 2, 2, 2}, opt)
			return err
		}
	}
	runs["masked3/DRI"] = func(c *mr.Cluster) error {
		_, err := MaskedParafacALS(c, x3, [][3]int64{{0, 0, 0}, {3, 2, 1}}, 2, Options{Variant: DRI, MaxIters: 2, Seed: 3})
		return err
	}
	return runs
}

// TestLendingCountAfterALSRuns: a full ALS run leaves the engine's
// lending count where it found it. Every slab a run draws comes back:
// staged tensors and factors, job parts and merge results through the
// DFS and Reclaim while another contraction follows, and the last
// contraction's (and the staged tensor's) by being let go. The count
// moves only under the race detector.
func TestLendingCountAfterALSRuns(t *testing.T) {
	if !raceEnabled {
		t.Skip("the pools count their loans only under the race detector")
	}
	for name, run := range ownershipRuns() {
		t.Run(name, func(t *testing.T) {
			c := testCluster()
			base := mr.Lent()
			if err := run(c); err != nil {
				t.Fatal(err)
			}
			if n := mr.Lent() - base; n != 0 {
				t.Fatalf("%+d slabs still lent after the run", n)
			}
			if files := c.FS().List(); len(files) != 0 {
				t.Fatalf("files left on the DFS: %v", files)
			}
		})
	}
}

// TestWarmSweepReusesIntermediates: once the pools are warm, an ALS
// sweep writes its intermediates — the IMHP parts, the staged factors,
// the merge result — into the storage the previous contraction's
// deleted ones held, so a sweep allocates less per contraction than one
// IMHP part. The extra sweep of a three-iteration run over a
// two-iteration one measures a warm sweep alone. One P keeps the pools'
// hits deterministic: with several, which slabs concurrent tasks hold
// at once varies from run to run.
func TestWarmSweepReusesIntermediates(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops a quarter of its Puts")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rng := rand.New(rand.NewSource(45))
	x := randomSparse(rng, [3]int64{60, 50, 40}, 20_000)
	const cols = 4 // the rank, and every core dimension
	// One IMHP part: a record per nonzero and factor column.
	part := int64(x.NNZ()) * cols * int64(unsafe.Sizeof(HEntry{}))
	for _, method := range []string{"parafac", "tucker"} {
		t.Run(method, func(t *testing.T) {
			c := testCluster()
			alloc := func(iters int) int64 {
				// Tol is tiny so that every run takes all its iterations.
				opt := Options{Variant: DRI, MaxIters: iters, Seed: 5, Tol: 1e-300}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				ran, err := 0, error(nil)
				if method == "parafac" {
					var res *ParafacResult
					if res, err = ParafacALS(c, x, cols, opt); err == nil {
						ran = res.Iters
					}
				} else {
					var res *TuckerResult
					if res, err = TuckerALS(c, x, []int{cols, cols, cols}, opt); err == nil {
						ran = res.Iters
					}
				}
				runtime.ReadMemStats(&after)
				if err != nil || ran != iters {
					t.Fatalf("%d iterations: ran %d, %v", iters, ran, err)
				}
				return int64(after.TotalAlloc - before.TotalAlloc)
			}
			alloc(3) // warm the pools' scratch slabs
			two, three := alloc(2), alloc(3)
			perContraction := (three - two) / int64(x.Order())
			t.Logf("warm sweep: %d B per contraction, one IMHP part %d B", perContraction, part)
			if perContraction >= part {
				t.Fatalf("a warm sweep allocated %d B per contraction, not less than one IMHP part (%d B)", perContraction, part)
			}
		})
	}
}

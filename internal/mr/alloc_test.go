// Allocation-regression tests for the shuffle hot path. The arena
// grouper (group.go) exists so a fiber-keyed job — one distinct key per
// nonzero fiber, the dominant shape in the HaTen2 plans — performs no
// per-key allocations once the typed pools are warm. These tests pin
// that property with testing.AllocsPerRun: reintroducing per-key churn
// (a map[K][]V group, unpooled buffers, per-key value slices) pushes
// allocations per record from well under the budget to ~0.5 and fails
// loudly.
package mr_test

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"github.com/haten2/haten2/internal/mr"
)

// allocBudgetPerRecord is deliberately loose: steady state measures
// ~0.002 allocs/record (fixed per-task and per-job overhead only), the
// pre-arena grouper measured ~0.4, and the budget sits well clear of
// both so pool evictions by a mid-measurement GC cannot flake the test.
const allocBudgetPerRecord = 0.05

// shuffleAllocJob is a fiber-keyed shuffle: every input record fans out
// to 4 pairs over a 16Ki key space, values are summed per key.
func shuffleAllocJob(c *mr.Cluster, name string) (mr.Job[int64, int64, int64], int64) {
	const records = 20_000
	items := make([]int64, records)
	for i := range items {
		items[i] = int64(i)
	}
	if err := mr.WriteFile(c, "in-"+name, items, func(int64) int64 { return 8 }); err != nil {
		panic(err)
	}
	job := mr.Job[int64, int64, int64]{
		Name: name,
		Inputs: []mr.Input[int64, int64]{mr.MapInput("in-"+name, func(v int64, emit func(int64, int64)) {
			for j := int64(0); j < 4; j++ {
				emit((v*4+j)%16384, v)
			}
		})},
		Reduce: func(k int64, vs []int64, emit func(int64)) {
			var s int64
			for _, v := range vs {
				s += v
			}
			emit(s)
		},
		Partition: mr.HashInt64,
	}
	return job, records * 4
}

func TestShuffleAllocsPerRecord(t *testing.T) {
	c := mr.NewCluster(mr.Config{Machines: 8, SlotsPerMachine: 4})
	job, pairs := shuffleAllocJob(c, "alloc-shuffle")
	// Two warm-up runs fill the typed pools with slabs of the job's sizes.
	for i := 0; i < 2; i++ {
		if _, _, err := mr.Run(c, job); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(5, func() {
		if _, _, err := mr.Run(c, job); err != nil {
			t.Fatal(err)
		}
	})
	perRecord := avg / float64(pairs)
	t.Logf("allocs/run = %.0f over %d shuffled pairs (%.4f allocs/record)", avg, pairs, perRecord)
	if perRecord > allocBudgetPerRecord {
		t.Errorf("shuffle hot path allocates %.4f allocs/record (budget %.2f): per-key allocation churn is back",
			perRecord, allocBudgetPerRecord)
	}
}

// TestShuffleLendingCount checks the pools' lending count, which moves
// only under the race detector: a Run keeps lent exactly one slab, its
// output, and takes back every other slab it borrowed — map slabs,
// emit buffers, group arenas, reducer outputs — so Recycle returns the
// count to where it began. That holds on the job's first run and at
// every pool width, since each width has its own release paths.
func TestShuffleLendingCount(t *testing.T) {
	if !mr.RaceEnabled {
		t.Skip("the pools count their loans only under the race detector")
	}
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			c := mr.NewCluster(mr.Config{Machines: 8, SlotsPerMachine: 4})
			job, _ := shuffleAllocJob(c, "lending")
			for run := range 3 {
				base := mr.Lent()
				out, _, err := mr.Run(c, job)
				if err != nil {
					t.Fatal(err)
				}
				if n := mr.Lent() - base; n != 1 {
					t.Fatalf("run %d: %+d slabs out after Run, want +1 (its output)", run, n)
				}
				mr.Recycle(out)
				if n := mr.Lent() - base; n != 0 {
					t.Fatalf("run %d: %+d slabs out after Recycle, want 0", run, n)
				}
			}
		})
	}
}

// The cold-run test's own record types: the typed pools are package
// state keyed by element type, so types no other test shuffles are what
// makes its job the first one its pools ever see, whatever ran before.
type (
	coldKey int64
	coldVal struct{ a, b int64 }
	coldOut struct {
		k    coldKey
		a, b int64
	}
)

// TestShuffleColdRunAllocatesOnce pins that the engine writes a
// shuffled record once even when nothing is warm. The job has the IMHP
// shape — one large input emitting 2 pairs per record beside two tiny
// ones, keys skewed so the busiest reducer takes more than 4× the
// lightest — and is the first job on a fresh cluster. Everything it
// allocates is compared with the bytes it has to hold: shuffled pairs ×
// pair size + output records × record size.
//
// The pool is pinned two wide — the smallest width at which the first
// wave of tasks is concurrent; every worker brings one growing emit
// buffer and one blind first reducer, so the ratio rises with the width.
// Measured ratio of TotalAlloc to that floor at GOMAXPROCS 1 / 2 / 4 / 8:
// parent (one growing bucket per (task, reducer), one growing output per
// reducer, then the concatenation) 4.07 / 4.10 / 4.16 / 4.21; head (one
// exact slab per task, the group arena, output given its room before a
// reducer runs) 1.28 / 1.80 / 2.03 / 2.62. The bound is midway at two.
func TestShuffleColdRunAllocatesOnce(t *testing.T) {
	const (
		records  = 120_000
		tiny     = 800
		maxRatio = 2.95
	)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	c := mr.NewCluster(mr.Config{Machines: 8, SlotsPerMachine: 4})
	big := make([]int64, records)
	for i := range big {
		big[i] = int64(i)
	}
	small := make([]int64, tiny)
	for i := range small {
		small[i] = int64(i)
	}
	for name, items := range map[string][]int64{"cold-x": big, "cold-b": small, "cold-c": small} {
		if err := mr.WriteFile(c, name, items, func(int64) int64 { return 8 }); err != nil {
			t.Fatal(err)
		}
	}
	// 40 light keys and 7 heavy ones: a heavy key alone carries 5.7× a
	// light one's pairs.
	keys := func(v int64) (coldKey, coldKey) { return coldKey(v % 40), coldKey(1000 + v%7) }
	part := func(k coldKey) uint64 { return mr.HashInt64(int64(k)) }
	loads := make([]int, c.Workers())
	for v := int64(0); v < records; v++ {
		k1, k2 := keys(v)
		loads[part(k1)%uint64(len(loads))]++
		loads[part(k2)%uint64(len(loads))]++
	}
	lo, hi := records, 0
	for _, n := range loads {
		if n > 0 {
			lo, hi = min(lo, n), max(hi, n)
		}
	}
	if hi < 4*lo {
		t.Fatalf("reducer loads %d..%d: the test wants a 4× skew", lo, hi)
	}
	tinyInput := func(file string) mr.Input[coldKey, coldVal] {
		return mr.MapInput(file, func(v int64, emit func(coldKey, coldVal)) {
			emit(coldKey(v%40), coldVal{a: -1, b: v})
		})
	}
	job := mr.Job[coldKey, coldVal, coldOut]{
		Name: "cold-imhp",
		Inputs: []mr.Input[coldKey, coldVal]{
			mr.MapInput("cold-x", func(v int64, emit func(coldKey, coldVal)) {
				k1, k2 := keys(v)
				emit(k1, coldVal{a: v, b: 1})
				emit(k2, coldVal{a: v, b: 2})
			}),
			tinyInput("cold-b"), tinyInput("cold-c"),
		},
		Reduce: func(k coldKey, vs []coldVal, emit func(coldOut)) {
			for _, v := range vs {
				if v.a >= 0 {
					emit(coldOut{k: k, a: v.a, b: v.b})
				}
			}
		},
		Partition: part,
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out, st, err := mr.Run(c, job)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if st.ShuffleRecords != 2*records+2*tiny || len(out) != 2*records {
		t.Fatalf("shuffled %d pairs into %d records", st.ShuffleRecords, len(out))
	}
	floor := float64(st.ShuffleRecords)*float64(unsafe.Sizeof(mr.Pair[coldKey, coldVal]{})) + float64(len(out))*float64(unsafe.Sizeof(coldOut{}))
	ratio := float64(after.TotalAlloc-before.TotalAlloc) / floor
	t.Logf("cold run allocated %.2f× its %.1f MB of pairs and output", ratio, floor/1e6)
	if ratio > maxRatio {
		t.Errorf("cold run allocated %.2f× the bytes it holds (bound %.2f×): a buffer on the data path is growing again", ratio, maxRatio)
	}
}

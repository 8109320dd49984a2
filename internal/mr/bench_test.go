// Benchmarks for the engine's hot path. They live in package mr_test so
// the headline benchmark can drive mr.Run through the real HaTen2 plans
// in internal/core without an import cycle.
//
// The acceptance benchmark for the parallel shuffle path is
// BenchmarkParafacDRIIteration: one full PARAFAC-DRI iteration (all
// three mode contractions) over a 1M-nnz tensor. Compare cores with
//
//	go test -run - -bench ParafacDRIIteration -cpu 1,4 ./internal/mr
//
// On ≥ 4 cores the wall-clock per iteration must be ≥ 2× faster at
// -cpu 4 than at -cpu 1 (the simulated SimSeconds are identical by
// construction — real parallelism never changes the cost model).
//
// All benchmarks report allocations (-benchmem implied): the arena
// grouper's allocs/op numbers are the acceptance figures recorded in
// EXPERIMENTS.md, and alloc_test.go pins them against regression.
package mr_test

import (
	"math/rand"
	"testing"

	"github.com/haten2/haten2/internal/core"
	"github.com/haten2/haten2/internal/gen"
	"github.com/haten2/haten2/internal/matrix"
	"github.com/haten2/haten2/internal/mr"
	"github.com/haten2/haten2/internal/obs"
)

// benchCluster is sized so the engine has ample task-level parallelism
// (32 slots) and no shuffle cap: DRI's PairwiseMerge legitimately
// shuffles 2·nnz·R records, which must not trip a limit mid-benchmark.
func benchCluster() *mr.Cluster {
	return mr.NewCluster(mr.Config{Machines: 8, SlotsPerMachine: 4})
}

// BenchmarkParafacDRIIteration measures one full PARAFAC-DRI iteration
// (mode-0, mode-1, mode-2 contractions) on a 1M-nnz random tensor at
// rank 4 — the workload the ISSUE's ≥2×-on-4-cores criterion is pinned
// on. Staging the tensor is setup, not measured; the measured region is
// exactly the MapReduce work an ALS iteration performs.
func BenchmarkParafacDRIIteration(b *testing.B) {
	const (
		dim  = 300
		nnz  = 1_000_000
		rank = 4
	)
	x := gen.Random(7, [3]int64{dim, dim, dim}, nnz)
	c := benchCluster()
	s, err := core.Stage(c, "X", x)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	factors := make([]*matrix.Matrix, 3)
	for m := 0; m < 3; m++ {
		factors[m] = matrix.Random(dim, rank, rng)
	}
	other := [3][2]int{{1, 2}, {0, 2}, {0, 1}}
	b.SetBytes(int64(nnz))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for n := 0; n < 3; n++ {
			o := other[n]
			if _, err := core.ParafacContract(s, n, factors[o[0]], factors[o[1]], core.DRI); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkEngineShuffle isolates mr.Run itself: a 1M-pair job with a
// fan-in key space and a trivial reduce. This is the pure
// map → shuffle-group → reduce path with none of core's arithmetic.
func BenchmarkEngineShuffle(b *testing.B) {
	const records = 250_000
	c := benchCluster()
	items := make([]int64, records)
	for i := range items {
		items[i] = int64(i)
	}
	if err := mr.WriteFile(c, "in", items, func(int64) int64 { return 8 }); err != nil {
		b.Fatal(err)
	}
	job := mr.Job[int64, int64, int64]{
		Name: "shuffle-bench",
		Inputs: []mr.Input[int64, int64]{mr.MapInput("in", func(v int64, emit func(int64, int64)) {
			for j := int64(0); j < 4; j++ {
				emit((v*4+j)%65536, v)
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
	b.SetBytes(records * 4 * 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := mr.Run(c, job); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineShuffleTraced is BenchmarkEngineShuffle with a tracer
// attached, measuring the cost of span recording on the engine's hot
// path. The acceptance criterion runs the other way: compare this
// against BenchmarkEngineShuffle to see the tracing cost, and compare
// BenchmarkEngineShuffle against the pre-tracing baseline to confirm
// the nil-tracer path (one pointer check per job under the stats lock)
// costs < 2%:
//
//	go test -run - -bench EngineShuffle -count 10 ./internal/mr
func BenchmarkEngineShuffleTraced(b *testing.B) {
	const records = 250_000
	c := benchCluster()
	c.SetTracer(obs.NewTracer())
	items := make([]int64, records)
	for i := range items {
		items[i] = int64(i)
	}
	if err := mr.WriteFile(c, "in", items, func(int64) int64 { return 8 }); err != nil {
		b.Fatal(err)
	}
	job := mr.Job[int64, int64, int64]{
		Name: "shuffle-bench-traced",
		Inputs: []mr.Input[int64, int64]{mr.MapInput("in", func(v int64, emit func(int64, int64)) {
			for j := int64(0); j < 4; j++ {
				emit((v*4+j)%65536, v)
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
	b.SetBytes(records * 4 * 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := mr.Run(c, job); err != nil {
			b.Fatal(err)
		}
		if i%64 == 63 {
			// Keep the span log from growing without bound across b.N.
			c.Tracer().Reset()
		}
	}
}

package main

import (
	"fmt"

	"github.com/haten2/haten2/internal/gen"
	"github.com/haten2/haten2/internal/tensor"
)

// workload pins one input and configuration of the pipeline. Every
// workload runs the same phases — generate, decompose, persist, serve —
// so every end-to-end metric exists on every workload.
type workload struct {
	Name string
	// Why says which layer the workload was chosen to stress.
	Why string

	// Input: a uniform random cube (Dim, NNZ) or, when Concepts > 0, a
	// planted-concept knowledge base (hypersparse, tall factors).
	Dim      int64
	NNZ      int
	Concepts int
	Entities int // per concept; also triples per concept
	Noise    int // uniform noise triples

	// Decomposition: PARAFAC-DRI of rank Rank, or Tucker-DRI with a
	// Core³ core when Core > 0; Iters ALS iterations; through two
	// mrproc worker processes when Proc is set.
	Rank, Core, Iters int
	Proc              bool

	// GenReps and PersistReps repeat the set-up and the Save→Load round
	// trip inside one pass; the pass reports their medians. PersistReps
	// makes the persist phase last a second or more: the host's speed
	// shifts within a second, and a 0.3 s phase of sub-millisecond round
	// trips read 15–20 % apart from run to run, a 1 s phase 3–5 %.
	GenReps, PersistReps int

	// Serving: Shards row shards, Cache entries per stripe (0 disables
	// the cache), Queries top-10 queries from 2 closed-loop clients,
	// drawn Zipf(1.2) over Users hashed onto (subject, predicate) or,
	// when Uniform is set, uniformly over all pairs.
	Shards, Cache int
	Uniform       bool
	Users         uint64
	Queries       int
}

const (
	topK         = 10
	serveClients = 2
)

// workloads returns the four pinned workloads at full scale, or the
// same pipeline shapes shrunk to run in a test at smoke scale.
func workloads(scale string) ([]workload, error) {
	full := []workload{
		{
			Name: "dense_parafac",
			Why:  "nnz-dominated PairwiseMerge shuffle: engine map/group/reduce and the Entry/HEntry block codec do nearly all the work; serving is cache-hit-path dominated (200-row object factor)",
			Dim:  200, NNZ: 120_000, Rank: 6, Iters: 2,
			GenReps: 5, PersistReps: 1000,
			Shards: 2, Cache: 1024, Users: 1_000_000, Queries: 400_000,
		},
		{
			Name: "dense_tucker",
			Why:  "same tensor through CrossMerge, YEntry assembly and LeadingLeftSingularVectors with 45x the mallocs, so a PARAFAC gain that costs Tucker, or a merged stack that slows either, shows",
			Dim:  200, NNZ: 120_000, Core: 4, Iters: 2,
			GenReps: 5, PersistReps: 1200,
			Shards: 2, Cache: 1024, Users: 1_000_000, Queries: 400_000,
		},
		{
			Name:     "tall_parafac",
			Why:      "hypersparse 65536x65536x16400 knowledge base: I*R MatEntry records, DFS factor staging, tall matrix kernels and a 20 MB model load dfs, matrix and persist; serving is all misses on a 65536-row kernel",
			Concepts: 16, Entities: 4096, Noise: 8192, Rank: 8, Iters: 2,
			GenReps: 5, PersistReps: 5,
			Shards: 2, Cache: 1024, Uniform: true, Queries: 2_000,
		},
		{
			Name: "proc_parafac",
			Why:  "the only workload where mrproc frames and the mr/wire reflect codec run: two worker processes over loopback TCP; serving bypasses the cache with a tiny kernel, isolating dispatch and batching",
			Dim:  200, NNZ: 40_000, Rank: 4, Iters: 1, Proc: true,
			GenReps: 9, PersistReps: 1200,
			Shards: 2, Cache: 0, Users: 1_000_000, Queries: 200_000,
		},
	}
	switch scale {
	case "full":
		return full, nil
	case "smoke":
		for i := range full {
			w := &full[i]
			if w.Concepts > 0 {
				w.Concepts, w.Entities, w.Noise = 4, 64, 64
			} else {
				w.Dim, w.NNZ = 24, 1_500
			}
			w.GenReps, w.PersistReps = 2, 2
			w.Users, w.Queries = 10_000, 2_000
			if w.Uniform {
				w.Queries = 200
			}
		}
		return full, nil
	}
	return nil, fmt.Errorf("unknown scale %q (want full or smoke)", scale)
}

// generate builds the workload's input tensor from the seed. The
// program under test only ever sees this generated input.
func (w workload) generate(seed int64) *tensor.Tensor {
	if w.Concepts == 0 {
		return gen.Random(seed, [3]int64{w.Dim, w.Dim, w.Dim}, w.NNZ)
	}
	names := make([]string, w.Concepts)
	for i := range names {
		names[i] = fmt.Sprintf("concept-%02d", i)
	}
	kb := gen.NewKB(gen.KBConfig{
		Seed:               seed,
		ConceptNames:       names,
		EntitiesPerConcept: w.Entities,
		TriplesPerConcept:  w.Entities,
		NoiseTriples:       w.Noise,
	})
	return kb.Tensor()
}

// userQuery maps a user id to its (subject, predicate) query with the
// splitmix64 finalizer, so millions of users project onto the query
// space statelessly.
func userQuery(user uint64, subjects, predicates int64) (int64, int64) {
	z := user + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z % uint64(subjects)), int64((z >> 32) % uint64(predicates))
}

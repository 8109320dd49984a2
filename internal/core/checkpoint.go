package core

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/haten2/haten2/internal/mr"
)

// Iteration checkpointing for the ALS loop.
//
// When Options.Checkpoint names a DFS base path, runALS persists its
// complete iteration state (alsState: factor matrices plus the loop's
// convergence variables) after every outer iteration, and a fresh run
// with the same options resumes from the newest checkpoint it finds —
// the Hadoop pattern of an iterative driver surviving a JobTracker
// crash because its per-iteration outputs live on HDFS.
//
// Commit protocol: iteration t's state is written to "<base>.ckpt<t>"
// through the DFS's atomic Create→Close (a checkpoint is invisible
// until fully written, so a crash mid-write exposes nothing), and older
// checkpoints are pruned only after the new one is published. At any
// instant the DFS therefore holds at least one complete checkpoint once
// the first iteration finishes; recovery loads the one with the highest
// iteration number. Resume is bit-identical: the restored state is a
// deep copy of exactly what the original loop held at the iteration
// boundary, and all per-iteration randomness is derived from
// (Options.Seed, iteration), never from a stream whose position depends
// on how many iterations this process ran.

// ckptName returns the DFS name of iteration it's checkpoint. The fixed
// width keeps List's lexical order equal to iteration order.
func ckptName(base string, it int) string {
	return fmt.Sprintf("%s.ckpt%06d", base, it)
}

// ckptIter parses a checkpoint file name, reporting whether name is a
// checkpoint of base.
func ckptIter(base, name string) (int, bool) {
	rest, ok := strings.CutPrefix(name, base+".ckpt")
	if !ok {
		return 0, false
	}
	it, err := strconv.Atoi(rest)
	if err != nil || it < 0 {
		return 0, false
	}
	return it, true
}

// saveCheckpoint atomically publishes a deep copy of st — the loop state
// after iteration st.iters — under base and prunes older checkpoints. A
// leftover same-name checkpoint from an earlier process is replaced
// (re-running an iteration reproduces the identical state, so the
// replacement is a no-op in content). The state is a one-record file,
// charged the bytes of the floats it holds.
func saveCheckpoint(c *mr.Cluster, base string, st *alsState) error {
	name := ckptName(base, st.iters)
	size := func(st *alsState) int64 {
		floats := len(st.lambda) + len(st.prevLambda) + len(st.coreNorms) + len(st.fits)
		for _, f := range st.factors {
			floats += f.Rows * f.Cols
		}
		if st.core != nil {
			floats += len(st.core.Data)
		}
		return int64(floats)*8 + 16
	}
	if err := mr.WriteFile(c, name, []*alsState{st.clone()}, size); err != nil {
		return fmt.Errorf("core: checkpoint %q: %w", name, err)
	}
	// The new checkpoint is published; older ones are now redundant.
	fs := c.FS()
	for _, n := range fs.List() {
		if old, ok := ckptIter(base, n); ok && old < st.iters {
			if err := fs.Delete(n); err != nil {
				return fmt.Errorf("core: checkpoint prune %q: %w", n, err)
			}
		}
	}
	return nil
}

// loadCheckpoint returns a private copy of the newest checkpoint under
// base, or nil when none exists. A checkpoint written by a different
// decomposition than method is an error, not a silent restart.
func loadCheckpoint(c *mr.Cluster, base, method string) (*alsState, error) {
	best, bestIter := "", -1
	for _, n := range c.FS().List() {
		if it, ok := ckptIter(base, n); ok && it > bestIter {
			best, bestIter = n, it
		}
	}
	if bestIter < 0 {
		return nil, nil
	}
	recs, err := mr.ReadFile[*alsState](c, best)
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint %q: %w", best, err)
	}
	if len(recs) != 1 {
		return nil, fmt.Errorf("core: checkpoint %q has %d records, want 1", best, len(recs))
	}
	if recs[0].method != method {
		return nil, fmt.Errorf("core: checkpoint %q is not a %s checkpoint", best, method)
	}
	return recs[0].clone(), nil
}

// iterSeed derives the RNG seed of one outer iteration from the run
// seed, so any randomness consumed inside an iteration (dead-component
// reinitialization) is a function of (Seed, iteration) alone — a
// resumed run draws exactly what the original run would have.
func iterSeed(seed int64, it int) int64 {
	h := (uint64(seed) ^ 0x9e3779b97f4a7c15) + (uint64(it)+1)*0xbf58476d1ce4e5b9
	h ^= h >> 30
	h *= 0x94d049bb133111eb
	h ^= h >> 27
	return int64(h)
}

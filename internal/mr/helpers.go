package mr

// HashInt64 is a partitioner for int64 keys (Fibonacci hashing, good
// spread for both dense and strided key sets).
func HashInt64(k int64) uint64 {
	return uint64(k) * 0x9E3779B97F4A7C15
}

// HashPair is a partitioner for [2]int64 keys.
func HashPair(k [2]int64) uint64 {
	h := uint64(k[0])*0x9E3779B97F4A7C15 ^ uint64(k[1])*0xC2B2AE3D27D4EB4F
	h ^= h >> 29
	return h * 0xBF58476D1CE4E5B9
}

// WriteFile creates a DFS file containing items, charged size(item)
// bytes each, stored as a single typed block (no per-record boxing).
// It replaces any existing file of the same name (delete+create),
// which is the common pattern for per-iteration factor matrices.
func WriteFile[T any](c *Cluster, name string, items []T, size func(T) int64) error {
	if c.fs.Exists(name) {
		if err := c.fs.Delete(name); err != nil {
			return err
		}
	}
	w, err := c.fs.Create(name)
	if err != nil {
		return err
	}
	var total int64
	for _, it := range items {
		total += size(it)
	}
	// The DFS owns a block payload once appended, so hand it a copy and
	// leave the caller's slice untouched.
	blk := make([]T, len(items))
	copy(blk, items)
	w.AppendBlock(blk, len(blk), total)
	w.Close()
	return nil
}

// WriteFileOwned is WriteFile for a slice the caller hands off: items
// becomes the file's block payload with no defensive copy, and the
// caller must not read or write items afterwards — the DFS owns it.
// Use it when a plan materializes a large intermediate purely to write
// it (IMHP's 𝒯′/𝒯″ splits), where WriteFile's copy would double the
// allocation.
//
// When it replaces an existing block file of the same element type, the
// replaced payload is reclaimed into the engine's buffer pools — the
// per-iteration rewrite cycle (Acquire → fill → WriteFileOwned) then
// reuses two slab generations forever instead of faulting in fresh
// ones. This is only sound because jobs run to completion before the
// driver rewrites their inputs: any zero-copy view of the old block
// (BlockView, MapInput) is dead by the time the file is replaced.
func WriteFileOwned[T any](c *Cluster, name string, items []T, size func(T) int64) error {
	if c.fs.Exists(name) {
		//haten2:allow errcheck-io Exists-guarded view of a file we are about to delete; a non-block file just skips the reclaim
		if payload, _, ok, _ := c.fs.BlockView(name); ok {
			if old, isT := payload.([]T); isT {
				// The one sanctioned pool return of DFS storage: the
				// file is deleted on the next line, and jobs run to
				// completion before the driver rewrites their inputs,
				// so no borrowed view of this payload can be live.
				//haten2:allow dfsborrow reclaiming the payload of the file being replaced; deleted immediately below, no live borrows by the sequential-job contract
				putSlice(old)
			}
		}
		if err := c.fs.Delete(name); err != nil {
			return err
		}
	}
	w, err := c.fs.Create(name)
	if err != nil {
		return err
	}
	var total int64
	for _, it := range items {
		total += size(it)
	}
	w.AppendBlock(items, len(items), total)
	w.Close()
	return nil
}

// ReadFile reads back a DFS file of T records. Block-written files
// (WriteFile, job outputs) are copied straight from the typed payload;
// per-record files are asserted record by record.
func ReadFile[T any](c *Cluster, name string) ([]T, error) {
	payload, n, ok, err := c.fs.BlockView(name)
	if err != nil {
		return nil, err
	}
	if ok {
		if s, isT := payload.([]T); isT {
			out := make([]T, n)
			copy(out, s)
			return out, nil
		}
		// Typed file of another element type: fall through to the boxed
		// view, which asserts per record.
	}
	recs, err := c.fs.ReadAll(name)
	if err != nil {
		return nil, err
	}
	out := make([]T, len(recs))
	for i, r := range recs {
		out[i] = r.Data.(T)
	}
	return out, nil
}

// Recycle hands a slice previously returned by Run (or any slice the
// caller owns outright) back to the engine's typed buffer pools, where
// the next job with the same record type will reuse its backing array.
// The caller must not touch s afterwards. Recycling is optional — an
// un-recycled output is ordinary garbage — but plans that materialize
// multi-million-record outputs and drop them within one step (IMHP's
// tagged stream) should recycle to keep the allocator off the engine's
// critical path.
func Recycle[T any](s []T) {
	putSlice(s)
}

// Acquire returns an empty slice with capacity ≥ n from the engine's
// typed buffer pools — the borrowing counterpart of Recycle. Plans that
// materialize a large intermediate every iteration (IMHP's 𝒯′/𝒯″
// splits) acquire instead of make so the slabs reclaimed by Recycle and
// WriteFileOwned's replace path circulate rather than accumulate as
// garbage.
func Acquire[T any](n int) []T {
	return getSlice[T](n)
}

// HashTriple is a partitioner for [3]int64 keys.
func HashTriple(k [3]int64) uint64 {
	h := uint64(k[0])*0x9E3779B97F4A7C15 ^ uint64(k[1])*0xC2B2AE3D27D4EB4F ^ uint64(k[2])*0x165667B19E3779F9
	h ^= h >> 31
	return h * 0xBF58476D1CE4E5B9
}

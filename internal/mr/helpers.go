package mr

import "fmt"

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
// bytes each, stored as a single typed block. It replaces any existing
// file of the same name (delete+create), which is the common pattern
// for per-iteration factor matrices.
func WriteFile[T any](c *Cluster, name string, items []T, size func(T) int64) error {
	// The DFS owns a block payload once appended, so hand it a copy and
	// leave the caller's slice untouched.
	return WriteFileOwned(c, name, append(getSlice[T](max(len(items), 1)), items...), size)
}

// WriteFileOwned is WriteFile for a slice the caller hands off: items
// becomes the file's block payload with no defensive copy, and the
// caller must not read or write items afterwards — the DFS owns it.
// Use it when a plan builds a slice purely to write it (staging a
// tensor or a factor matrix), where WriteFile's copy would double the
// allocation. items must be a slab Acquire lent: the file takes the loan
// over, and when the file is deleted its storage can go back to the
// pools (Reclaim). A file replaced by name goes back at once.
func WriteFileOwned[T any](c *Cluster, name string, items []T, size func(T) int64) error {
	if c.fs.Exists(name) {
		old, err := c.fs.Delete(name)
		if err != nil {
			putSlice(items)
			return err
		}
		Reclaim(old)
	}
	w, err := c.fs.Create(name)
	if err != nil {
		putSlice(items)
		return err
	}
	var total int64
	for _, it := range items {
		total += size(it)
	}
	w.AppendBlock(items, len(items), total)
	Disown(items)
	w.Close()
	return nil
}

// ReadFile reads back a DFS file of T records as a private copy of its
// payload. A file of another element type is an error.
func ReadFile[T any](c *Cluster, name string) ([]T, error) {
	payload, n, err := c.fs.BlockView(name)
	if err != nil {
		return nil, err
	}
	s, ok := payload.([]T)
	if !ok && payload != nil {
		return nil, fmt.Errorf("mr: file %q holds %T, not %T", name, payload, s)
	}
	out := make([]T, n)
	copy(out, s)
	return out, nil
}

// Recycle hands a slice returned by Run for a job without Outputs (or
// any slice the caller owns outright) back to the engine's typed buffer
// pools, where the next job with the same record type will reuse its
// backing array. What Run returns for a job with Outputs is a DFS
// file's block and must never be recycled. The caller must not touch s
// afterwards. Recycling is optional — an un-recycled output is ordinary
// garbage — but callers that drop multi-million-record outputs within
// one step should recycle to keep the allocator off the engine's
// critical path.
func Recycle[T any](s []T) {
	putSlice(s)
}

// Acquire returns an empty slice with capacity ≥ n from the engine's
// typed buffer pools — the borrowing counterpart of Recycle. Code that
// fills a large buffer over and over (the proc backend's frame slabs,
// the slices plans stage with WriteFileOwned) acquires instead of make
// so the slabs given back by Recycle and Reclaim circulate rather than
// accumulate as garbage. n ≤ 0 asks for the largest slab
// pooled, or a small fresh one when the pools are empty: whatever the
// caller appends it into is then a slab the pools lent.
func Acquire[T any](n int) []T {
	if s := getSlice[T](n); s != nil {
		return s
	}
	return getSlice[T](1)
}

// HashTriple is a partitioner for [3]int64 keys.
func HashTriple(k [3]int64) uint64 {
	h := uint64(k[0])*0x9E3779B97F4A7C15 ^ uint64(k[1])*0xC2B2AE3D27D4EB4F ^ uint64(k[2])*0x165667B19E3779F9
	h ^= h >> 31
	return h * 0xBF58476D1CE4E5B9
}

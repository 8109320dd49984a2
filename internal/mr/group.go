package mr

// The reducer's grouping stage is the engine's allocation and hashing
// hot spot. The original implementation grouped each reduce partition
// into a map[K][]V, growing one heap-allocated value slice per distinct
// key — and HaTen2's dominant job shape (the fiber-keyed DNN/DRN/DRI
// plans) has one distinct key per nonzero fiber, so every job performed
// millions of small allocations and an ALS run performed thousands of
// such jobs. groupArena replaces that with a two-pass counting scheme
// over a single flat value arena:
//
//	pass 1 (count):   walk the partition's buckets in task order,
//	                  assigning each first-seen key the next slot via a
//	                  pooled open-addressed table and counting its
//	                  values;
//	pass 2 (scatter): prefix-sum the counts into per-slot offsets, then
//	                  walk the buckets again, writing each value into
//	                  its key's contiguous run of one pooled []V arena.
//
// Reduce then receives vals[start:end] subslices of the arena instead
// of individually allocated slices — zero per-key allocations once the
// pools are warm. Hashing is amortized across the whole shuffle: emit
// stores the raw partition hash in each pair (job.go), the count pass
// pushes it through the mix64 finalizer and probes the table on that
// (the raw hash's bits correlate with the reducer routing mask, so one
// extra mix keeps probe chains short — but no generic re-hash of the
// key is needed) and memoizes the resolved slot back into the pair,
// and the scatter pass reads the memoized slot — zero hash work in
// pass 2.
// Both passes walk buckets in task order and slots are assigned in
// first-seen key order, so reduce input order (and therefore
// floating-point summation order and every byte of output) is
// identical to the map-based grouping this replaces.
//
// Offsets are int32: a single reduce partition beyond 2³¹ pairs is far
// outside the simulator's scale (the experiment harness caps whole
// jobs at millions of shuffle records).
type groupArena[K comparable, V any] struct {
	// keys holds the distinct keys in slot order.
	keys []K
	// hashes holds each slot's stored pair hash, used to re-probe when
	// the table grows.
	hashes []uint64
	// next is, per slot, the value count after the count pass and the
	// next write cursor during the scatter pass (a cursor that ends at
	// the slot's end offset).
	next []int32
	// ends is the exclusive end offset of each slot's run in vals; slot
	// i's run is vals[ends[i-1]:ends[i]] (slot 0 starts at 0), because
	// runs are laid out in slot order.
	ends []int32
	// vals is the flat value arena, acquired from the []V pool at
	// layout time and released by putGroupArena.
	vals []V
	// table is the open-addressed (linear probing) slot index: entries
	// hold slot+1, 0 means empty. Always a power of two; mask is
	// len(table)-1. Pooled with the struct and cleared on release.
	table []int32
	mask  uint64
}

// minTable is a fresh grouper's table length; register doubles it as
// keys arrive, and the grown table stays with the pooled grouper.
const minTable = 16

// getGroupArena returns an empty grouper from the pool for the key and
// value types.
func getGroupArena[K comparable, V any]() *groupArena[K, V] {
	loan(1)
	if v := poolFor[*groupArena[K, V]]().Get(); v != nil {
		return v.(*groupArena[K, V])
	}
	return &groupArena[K, V]{table: make([]int32, minTable), mask: minTable - 1}
}

// putGroupArena releases the arena storage (clearing it so pooled
// memory pins no values) and returns the grouper to its pool.
func putGroupArena[K comparable, V any](g *groupArena[K, V]) {
	loan(-1)
	putSlice(g.vals)
	g.vals = nil
	clear(g.keys) // keys may hold pointers; zero before truncating
	g.keys = g.keys[:0]
	g.hashes = g.hashes[:0]
	g.next = g.next[:0]
	g.ends = g.ends[:0]
	clear(g.table)
	poolFor[*groupArena[K, V]]().Put(g)
}

// count is pass 1: register bucket's keys in first-seen order and tally
// their values. Buckets must be offered in task order. Each pair's h
// (the raw partition hash, finalized here) seeds the table probe and
// is overwritten with the key's slot for the scatter pass.
func (g *groupArena[K, V]) count(bucket []pair[K, V]) {
	// table/mask/keys are reloaded after register, which may grow the
	// table; between registrations they stay in registers.
	table, mask, keys := g.table, g.mask, g.keys
	for i := range bucket {
		p := &bucket[i]
		h := mix64(p.h)
		idx := h & mask
		var s int32
		for {
			t := table[idx]
			if t == 0 {
				s = g.register(h, p.k, idx)
				table, mask, keys = g.table, g.mask, g.keys
				break
			}
			if keys[t-1] == p.k {
				s = t - 1
				break
			}
			idx = (idx + 1) & mask
		}
		p.h = uint64(s)
		g.next[s]++
	}
}

// register assigns the next slot to key k (stored hash h) at the free
// table index idx, growing the table when it passes ½ load. The table
// therefore runs at ¼–½ load, trading a little cache footprint for
// mostly collision-free (and so branch-predictable) probes.
func (g *groupArena[K, V]) register(h uint64, k K, idx uint64) int32 {
	s := int32(len(g.keys))
	g.keys = append(g.keys, k)
	g.hashes = append(g.hashes, h)
	g.next = append(g.next, 0)
	g.ends = append(g.ends, 0)
	g.table[idx] = s + 1
	if uint64(len(g.keys))*2 >= uint64(len(g.table)) {
		g.grow()
	}
	return s
}

// grow doubles the table and re-probes every slot from its stored hash.
func (g *groupArena[K, V]) grow() {
	nt := make([]int32, 2*len(g.table))
	mask := uint64(len(nt) - 1)
	for s, h := range g.hashes {
		idx := h & mask
		for nt[idx] != 0 {
			idx = (idx + 1) & mask
		}
		nt[idx] = int32(s) + 1
	}
	g.table = nt
	g.mask = mask
}

// layout turns the counts into offsets and acquires the value arena at
// its exact size.
func (g *groupArena[K, V]) layout() {
	total := int32(0)
	for i, c := range g.next {
		g.next[i] = total
		total += c
		g.ends[i] = total
	}
	g.vals = getSlice[V](int(total))[:total]
}

// scatter is pass 2: write bucket's values into their keys' runs, using
// the slot count memoized into each pair's h. Buckets must be offered
// in the same task order as count, which makes each run's internal
// order (map task index, emission order) — exactly the reduce input
// order of the map-based grouping.
func (g *groupArena[K, V]) scatter(bucket []pair[K, V]) {
	vals, next := g.vals, g.next
	for i := range bucket {
		s := bucket[i].h
		vals[next[s]] = bucket[i].v
		next[s]++
	}
}

// group returns slot i's values. The subslice is capacity-limited to
// its run, so a reducer that appends to it reallocates instead of
// overwriting its neighbor; it aliases pooled storage and is only valid
// until putGroupArena.
func (g *groupArena[K, V]) group(i int) []V {
	start := int32(0)
	if i > 0 {
		start = g.ends[i-1]
	}
	return g.vals[start:g.ends[i]:g.ends[i]]
}

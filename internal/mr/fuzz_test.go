package mr

import (
	"slices"
	"testing"
)

// FuzzArenaGrouping differential-tests the pooled two-pass groupArena
// against the obvious map[K][]V grouping it replaced. For any bucket
// contents and any bucket split, the arena must produce the same
// distinct keys in the same first-seen order and, per key, the same
// values in the same order — the property that makes the arena
// invisible to reducers (and to floating-point summation order).
func FuzzArenaGrouping(f *testing.F) {
	f.Add(uint8(1), []byte{})
	f.Add(uint8(3), []byte{1, 10, 2, 20, 1, 30, 3, 40, 2, 50})
	f.Add(uint8(8), []byte{0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7})
	f.Add(uint8(2), []byte{31, 1, 31, 2, 31, 3, 0, 4, 15, 5, 15, 6})
	f.Fuzz(func(t *testing.T, nb uint8, data []byte) {
		nbuckets := int(nb%8) + 1
		buckets := make([][]Pair[int64, int64], nbuckets)
		for i := 0; i+1 < len(data); i += 2 {
			p := Pair[int64, int64]{K: int64(data[i] % 32), V: int64(data[i+1])}
			b := (i / 2) % nbuckets
			buckets[b] = append(buckets[b], p)
		}
		// Reference: per-key slices in a map, keys in first-seen order
		// across buckets walked in task order.
		ref := map[int64][]int64{}
		var order []int64
		for _, b := range buckets {
			for _, p := range b {
				if _, ok := ref[p.K]; !ok {
					order = append(order, p.K)
				}
				ref[p.K] = append(ref[p.K], p.V)
			}
		}
		g := getGroupArena[int64, int64]()
		defer putGroupArena(g)
		for _, b := range buckets {
			g.count(b)
		}
		g.layout()
		for _, b := range buckets {
			g.scatter(b)
		}
		if len(g.keys) != len(order) {
			t.Fatalf("arena found %d keys, reference %d", len(g.keys), len(order))
		}
		for i, k := range g.keys {
			if k != order[i] {
				t.Fatalf("slot %d: key %d, want %d (first-seen order broken)", i, k, order[i])
			}
			if vs := g.group(i); !slices.Equal(vs, ref[k]) {
				t.Fatalf("key %d: values %v, want %v", k, vs, ref[k])
			}
		}
	})
}

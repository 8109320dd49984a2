package mr

import (
	"math/rand"
	"reflect"
	"testing"
)

// refGroup is the straightforward map-based grouping the arena
// replaced; the arena must reproduce its key order and value runs
// exactly on any bucket sequence.
func refGroup(buckets [][]Pair[string, int]) ([]string, map[string][]int) {
	var keys []string
	vals := make(map[string][]int)
	for _, b := range buckets {
		for _, p := range b {
			if _, ok := vals[p.K]; !ok {
				keys = append(keys, p.K)
			}
			vals[p.K] = append(vals[p.K], p.V)
		}
	}
	return keys, vals
}

func runArena(buckets [][]Pair[string, int]) ([]string, map[string][]int) {
	g := getGroupArena[string, int]()
	for _, b := range buckets {
		g.count(b)
	}
	g.layout()
	for _, b := range buckets {
		g.scatter(b)
	}
	keys := append([]string(nil), g.keys...)
	vals := make(map[string][]int, len(keys))
	for i, k := range keys {
		vals[k] = append([]int(nil), g.group(i)...)
	}
	putGroupArena(g)
	return keys, vals
}

func TestGroupArenaMatchesMapGrouping(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	alphabet := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for trial := 0; trial < 50; trial++ {
		buckets := make([][]Pair[string, int], rng.Intn(5))
		for i := range buckets {
			n := rng.Intn(20)
			for j := 0; j < n; j++ {
				buckets[i] = append(buckets[i], Pair[string, int]{K: alphabet[rng.Intn(len(alphabet))], V: rng.Int()})
			}
		}
		wantKeys, wantVals := refGroup(buckets)
		gotKeys, gotVals := runArena(buckets)
		if !reflect.DeepEqual(wantKeys, gotKeys) {
			t.Fatalf("trial %d: key order %v, want %v", trial, gotKeys, wantKeys)
		}
		if !reflect.DeepEqual(wantVals, gotVals) {
			t.Fatalf("trial %d: groups %v, want %v", trial, gotVals, wantVals)
		}
	}
}

func TestGroupArenaEmpty(t *testing.T) {
	keys, vals := runArena(nil)
	if len(keys) != 0 || len(vals) != 0 {
		t.Fatalf("empty partition grouped to %v / %v", keys, vals)
	}
}

// TestGroupArenaAppendSafe pins the capacity-limiting of group(): a
// reducer appending to its values slice must reallocate, never
// overwrite the next key's run in the shared arena.
func TestGroupArenaAppendSafe(t *testing.T) {
	buckets := [][]Pair[string, int]{{
		{K: "x", V: 1}, {K: "x", V: 2}, {K: "y", V: 3}, {K: "y", V: 4},
	}}
	g := getGroupArena[string, int]()
	for _, b := range buckets {
		g.count(b)
	}
	g.layout()
	for _, b := range buckets {
		g.scatter(b)
	}
	defer putGroupArena(g)
	x := g.group(0)
	_ = append(x, 99)
	if got := g.group(1); got[0] != 3 || got[1] != 4 {
		t.Fatalf("append to group 0 clobbered group 1: %v", got)
	}
}

// TestGroupArenaReuseIsClean pins that a pooled grouper carries no
// state between jobs: keys, counts, and arena contents from a previous
// use must not leak into the next grouping.
func TestGroupArenaReuseIsClean(t *testing.T) {
	first := [][]Pair[string, int]{{{K: "stale", V: 7}, {K: "stale", V: 8}, {K: "old", V: 9}}}
	_, _ = runArena(first)
	second := [][]Pair[string, int]{{{K: "fresh", V: 1}}}
	keys, vals := runArena(second)
	if !reflect.DeepEqual(keys, []string{"fresh"}) {
		t.Fatalf("stale keys survived pooling: %v", keys)
	}
	if !reflect.DeepEqual(vals["fresh"], []int{1}) {
		t.Fatalf("stale values survived pooling: %v", vals)
	}
}

// TestGroupArenaTaskOrder pins the determinism contract: values of a
// key arrive in (bucket index, position) order even when the key is
// scattered across buckets.
func TestGroupArenaTaskOrder(t *testing.T) {
	buckets := [][]Pair[string, int]{
		{{K: "k", V: 0}, {K: "j", V: 100}, {K: "k", V: 1}},
		{},
		{{K: "j", V: 101}, {K: "k", V: 2}},
		{{K: "k", V: 3}},
	}
	keys, vals := runArena(buckets)
	if !reflect.DeepEqual(keys, []string{"k", "j"}) {
		t.Fatalf("first-seen key order broken: %v", keys)
	}
	if !reflect.DeepEqual(vals["k"], []int{0, 1, 2, 3}) {
		t.Fatalf("task-order value run broken: %v", vals["k"])
	}
	if !reflect.DeepEqual(vals["j"], []int{100, 101}) {
		t.Fatalf("task-order value run broken: %v", vals["j"])
	}
}

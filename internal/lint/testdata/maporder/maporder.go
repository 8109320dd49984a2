// Fixture for the maporder analyzer: map iteration inside emit-context
// functions (Map/Reduce literals and emit-callback functions).
package maporder

import "sort"

// job mimics the shape of mr.Job: function-typed Map/Reduce fields
// bound with composite literals.
type job struct {
	Map    func(rec any, emit func(int, float64))
	Reduce func(key int, vals []float64, emit func(float64))
}

// flaggedJob iterates maps inside Map and Reduce literals.
func flaggedJob(counts map[int]float64) job {
	return job{
		Map: func(rec any, emit func(int, float64)) {
			for k, v := range counts { // want "map iteration inside a Map function"
				emit(k, v)
			}
		},
		Reduce: func(key int, vals []float64, emit func(float64)) {
			acc := make(map[int]float64)
			for _, v := range vals {
				acc[key] += v
			}
			for _, v := range acc { // want "map iteration inside a Reduce function"
				emit(v)
			}
		},
	}
}

// flaggedEmitCallback is an emit-callback function declaration; the
// nested closure's map range is inside its body and flagged too.
func flaggedEmitCallback(m map[string]int, emit func(string)) {
	walk := func() {
		for k := range m { // want "map iteration inside emit-callback function flaggedEmitCallback"
			emit(k)
		}
	}
	walk()
}

// cleanSorted drains a map in sorted key order: the range is over a
// slice, so no special-casing is needed to pass.
func cleanSorted(m map[string]int, emit func(string)) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		emit(k)
	}
}

// cleanFirstSeen accumulates in first-seen order, the engine's
// CrossMerge pattern: the map is only indexed, never ranged.
func cleanFirstSeen(pairs []int, emit func(int)) {
	seen := make(map[int]bool)
	var order []int
	for _, p := range pairs {
		if !seen[p] {
			seen[p] = true
			order = append(order, p)
		}
	}
	for _, p := range order {
		emit(p)
	}
}

// cleanOutsideContext ranges over a map with no emit callback in
// sight: maporder does not apply (floatsum governs accumulation).
func cleanOutsideContext(m map[int]int) int {
	max := 0
	for _, v := range m {
		if v > max {
			max = v
		}
	}
	return max
}

// suppressed documents an order-irrelevant drain with the allow syntax.
func suppressed(m map[int]bool, emit func(int)) {
	n := 0
	//haten2:allow maporder only the count is emitted, order cannot matter
	for range m {
		n++
	}
	emit(n)
}

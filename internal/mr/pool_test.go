package mr

import "testing"

// TestSlabClasses pins the filing rule the pools rely on: classes tile
// the capacities in order, a slab is filed at or below its capacity, and
// a fresh slab is at most an eighth over the request.
func TestSlabClasses(t *testing.T) {
	prevClass, prevStart := -1, 0
	for n := minSlab; n < 1<<14; n++ {
		c, start, step := slabClass(n)
		if start > n || n >= start+step {
			t.Fatalf("slabClass(%d) = class %d [%d, %d)", n, c, start, start+step)
		}
		if c != prevClass && (c != prevClass+1 && prevClass >= 0 || start <= prevStart) {
			t.Fatalf("class %d (start %d) follows class %d (start %d)", c, start, prevClass, prevStart)
		}
		prevClass, prevStart = c, start
	}
	type elem struct{ a, b int32 } // a type no other test pools
	for _, want := range []int{1, 7, 8, 9, 100, 1000, 4097, 100_000} {
		s := getSlice[elem](want)
		if cap(s) < want || cap(s) > max(minSlab, want+want/8) {
			t.Fatalf("getSlice(%d) has capacity %d", want, cap(s))
		}
	}
}

// TestSlabNeverTooSmall: whatever was pooled, a request is answered with
// a slab that fits it, and a slab that does not fit stays pooled for the
// request it does fit.
func TestSlabNeverTooSmall(t *testing.T) {
	type elem struct{ a, b int64 }
	for _, c := range []int{9, 100, 1000, 1030, 5000} {
		putSlice(make([]elem, 0, c))
	}
	for _, want := range []int{1025, 1031, 4000, 900, 90, 8} {
		if s := getSlice[elem](want); cap(s) < want {
			t.Fatalf("getSlice(%d) returned capacity %d", want, cap(s))
		}
	}
	putSlice(make([]elem, 0, minSlab-1))
	if s := getSlice[elem](0); cap(s) != 0 && cap(s) < minSlab {
		t.Fatalf("a %d-element slab was pooled", cap(s))
	}
}

// TestAcquireLendsAndRecycleReturns: Acquire always hands out an empty
// slab, never nil, with at least the asked capacity, and each one it
// lends comes back through Recycle, so the race build's loan count ends
// where it began.
func TestAcquireLendsAndRecycleReturns(t *testing.T) {
	type probe struct{ a, b int64 } // a type no other test pools
	base := Lent()
	var got [][]probe
	for _, n := range []int{0, 1, 8, 100, 1000} {
		s := Acquire[probe](n)
		if s == nil || len(s) != 0 || cap(s) < max(n, 1) {
			t.Fatalf("Acquire(%d): nil=%v len %d cap %d", n, s == nil, len(s), cap(s))
		}
		got = append(got, s)
	}
	for _, s := range got {
		Recycle(s)
	}
	if d := Lent() - base; d != 0 {
		t.Fatalf("%d slabs still lent after Recycle", d)
	}
}

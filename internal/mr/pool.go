package mr

import (
	"math/bits"
	"reflect"
	"sync"
	"sync/atomic"
	"unsafe"
)

// The engine recycles its per-job scratch memory — map-task slabs,
// reducer group arenas (group.go), and reduce output buffers — across
// Run calls. ALS drivers run thousands of structurally identical jobs
// in a loop, so without reuse every iteration reallocates (and the GC
// retires) hundreds of megabytes of short-lived buffers. Run is
// generic, so the pools are keyed by concrete element type in a
// package-level registry: every instantiation of Run with the same
// key/value types shares one pool.
//
// Slabs of []T are filed by capacity class, eight to the octave: one job
// asks for very different sizes at once (IMHP: a 7,500-pair slab per
// tensor task beside 25-pair slabs for the factor tasks), and a single
// LIFO pool answers a large request with whatever small slab was
// returned last. A slab is filed under the last class that starts at or
// below its capacity and a fresh one is made at a class start (at most an
// eighth over the request), so every slab in a class fits every request
// that maps to it: a slab taken from the pool is never too small, and
// none is ever discarded.
//
// Under the race detector the pools check their two ownership facts
// where they happen (DESIGN.md §3f): lent counts the slabs out on loan,
// so a slab that never comes back shows in the count a sequential test
// asserts, and putSlice poisons what it pools, so a slab recycled while
// the DFS or a caller still reads it breaks the bit-identity tests.

const (
	minSlab     = 8 // the first class start; smaller slabs are not pooled
	slabClasses = 8 * bits.UintSize
)

// slabClass returns the last class starting at or below n ≥ minSlab,
// its start, and the distance to the next start.
func slabClass(n int) (class, start, step int) {
	k := bits.Len(uint(n)) - 1
	step = 1 << (k - 3)
	j := (n - 1<<k) / step
	return 8*k + j, 1<<k + j*step, step
}

var lent atomic.Int64 // moved by loan only

// Lent reports how many slabs the typed pools have lent and not had
// back, counted under the race detector only (0 otherwise). Run's output
// for a job without Outputs stays lent to its caller until Recycle.
func Lent() int64 { return lent.Load() }

var typedPools sync.Map // reflect.Type -> *sync.Pool (scratch structs) or *[slabClasses]sync.Pool (keyed by []T)

func pooled[P any](t reflect.Type) *P {
	if p, ok := typedPools.Load(t); ok {
		return p.(*P)
	}
	p, _ := typedPools.LoadOrStore(t, new(P))
	return p.(*P)
}

func poolFor[T any]() *sync.Pool { return pooled[sync.Pool](reflect.TypeFor[T]()) }

func slabPools[T any]() *[slabClasses]sync.Pool {
	return pooled[[slabClasses]sync.Pool](reflect.TypeFor[[]T]())
}

// getSlice returns an empty slice with capacity ≥ want from the pools
// for []T, looking no further than one octave up — a larger slab is
// better kept for a larger request — or a freshly made one. want ≤ 0
// asks for the largest slab pooled (or nil), for callers that append
// without knowing their total.
func getSlice[T any](want int) []T {
	pools := slabPools[T]()
	if want <= 0 {
		for c := slabClasses - 1; c >= 0; c-- {
			if v := pools[c].Get(); v != nil {
				return lend((*v.(*[]T))[:0])
			}
		}
		return nil
	}
	c, start, step := slabClass(max(want, minSlab))
	if start < want {
		c, start = c+1, start+step
	}
	for i := c; i < min(c+8, slabClasses); i++ {
		if v := pools[i].Get(); v != nil {
			return lend((*v.(*[]T))[:0])
		}
	}
	return lend(make([]T, 0, start))
}

// loan moves the lending count by n under the race detector: +1 for
// each slab or group arena lent, −1 for each given back.
func loan(n int64) {
	if raceEnabled {
		lent.Add(n)
	}
}

func lend[T any](s []T) []T { loan(1); return s }

// disown counts s, a lent slab or nil, as given back: to the pools, or
// for good to a new owner that never returns it (a DFS file, for
// commit's parts).
func disown[T any](s []T) {
	if s != nil {
		loan(-1)
	}
}

// putSlice clears the used portion of s when T contains pointers (so
// pooled memory pins no values) and returns its backing array to the
// pool for []T. Pointer-free buffers — the engine's dominant case,
// e.g. fiber-keyed pair slabs and float value arenas — skip the
// clear: stale numeric bytes pin nothing and every slot is overwritten
// before its next read (under the race detector they are poisoned
// instead). s must be the whole slab it was acquired as, never a
// sub-slice of one: two pool entries over one backing array would hand
// the same memory to two later jobs.
func putSlice[T any](s []T) {
	disown(s)
	if cap(s) < minSlab {
		return
	}
	if hasPointers[T]() {
		clear(s)
	} else if raceEnabled {
		poison(s)
	}
	s = s[:0]
	c, _, _ := slabClass(cap(s))
	slabPools[T]()[c].Put(&s)
}

// poison overwrites s's elements with 0xA5 bytes.
func poison[T any](s []T) {
	b := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), uintptr(len(s))*unsafe.Sizeof(*new(T)))
	for i := range b {
		b[i] = 0xA5
	}
}

var pointerFreeTypes sync.Map // reflect.Type -> bool

// hasPointers reports whether T contains any pointer-typed memory the
// GC could trace (cached per concrete type).
func hasPointers[T any]() bool {
	t := reflect.TypeFor[T]()
	if v, ok := pointerFreeTypes.Load(t); ok {
		return !v.(bool)
	}
	free := pointerFree(t)
	pointerFreeTypes.Store(t, free)
	return !free
}

func pointerFree(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return true
	case reflect.Array:
		return pointerFree(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !pointerFree(t.Field(i).Type) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

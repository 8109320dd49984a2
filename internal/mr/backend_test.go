package mr

import (
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
)

// TestLoopbackWordCount pins the backend seam at its smallest scale:
// the same job on the in-process engine and on the loopback backend
// (full encode/ship/fetch/decode of the shuffle partitions; a string
// has no file codec, so the input is read in process) must produce
// identical outputs and identical counters.
func TestLoopbackWordCount(t *testing.T) {
	lines := []string{"a b a", "b c", "a", "d e f g h i j k"}
	plain := testCluster(4)
	got := runWordCount(t, plain, lines)

	loop := testCluster(4)
	loop.SetBackend(NewLoopback())
	defer func() {
		if err := loop.Backend().Close(); err != nil {
			t.Fatal(err)
		}
	}()
	gotLoop := runWordCount(t, loop, lines)

	if !reflect.DeepEqual(got, gotLoop) {
		t.Fatalf("loopback output differs: %v vs %v", gotLoop, got)
	}
	a, b := plain.Totals(), loop.Totals()
	if a != b {
		t.Fatalf("loopback counters differ:\n in-process %+v\n loopback   %+v", a, b)
	}
	// After the job every partition must have been released.
	lb := loop.Backend().(*Loopback)
	lb.mu.Lock()
	nparts := len(lb.parts)
	lb.mu.Unlock()
	if nparts != 0 {
		t.Fatalf("%d partitions leaked after job completion", nparts)
	}
}

// TestLoopbackOutputOrder pins that output *order*, not just content,
// survives the seam: a multi-reducer job's concatenated output must be
// byte-for-byte the in-process engine's. Five worker slots make five
// reducers, so routing takes the modulo path, not the power-of-two mask.
func TestLoopbackOutputOrder(t *testing.T) {
	lines := []string{"q w e r t y u i o p", "a s d f g h j k l", "z x c v b n m"}
	run := func(c *Cluster) []string {
		if err := WriteFile(c, "lines", lines, func(s string) int64 { return int64(len(s)) }); err != nil {
			t.Fatal(err)
		}
		out, _, err := Run(c, Job[string, int, string]{
			Name: "order",
			Inputs: []Input[string, int]{MapInput("lines", func(rec string, emit func(string, int)) {
				for _, w := range strings.Fields(rec) {
					emit(w, len(w))
				}
			},
			)},
			Reduce: func(k string, vs []int, emit func(string)) {
				emit(k)
			},
			Partition: func(k string) uint64 {
				var h uint64 = 14695981039346656037
				for i := 0; i < len(k); i++ {
					h = (h ^ uint64(k[i])) * 1099511628211
				}
				return h
			},
			Outputs: []string{"out"},
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	fiveSlots := func() *Cluster { return NewCluster(Config{Machines: 5, SlotsPerMachine: 1}) }
	want := run(fiveSlots())
	loop := fiveSlots()
	loop.SetBackend(NewLoopback())
	if got := run(loop); !reflect.DeepEqual(got, want) {
		t.Fatalf("order differs:\n got  %v\n want %v", got, want)
	}
}

// TestBackendRemovedRestoresFastPath pins SetBackend(nil) semantics.
func TestBackendRemovedRestoresFastPath(t *testing.T) {
	c := testCluster(2)
	c.SetBackend(NewLoopback())
	if c.remote() == nil {
		t.Fatal("loopback backend not seen as out-of-process")
	}
	c.SetBackend(nil)
	if c.remote() != nil {
		t.Fatal("removed backend still routing")
	}
	got := runWordCount(t, c, []string{"x y", "y"})
	if got["y"] != 2 {
		t.Fatalf("fast path broken after backend removal: %v", got)
	}
}

// flakyBackend is a Loopback whose shuffle plane starts failing after a
// set number of windows.
type flakyBackend struct {
	*Loopback
	shipsLeft, fetchesLeft atomic.Int64
}

var errLostWorker = errors.New("worker lost")

func (f *flakyBackend) ShipPartitions(keys []PartKey, blocks [][]byte) error {
	if f.shipsLeft.Add(-1) < 0 {
		return errLostWorker
	}
	return f.Loopback.ShipPartitions(keys, blocks)
}

func (f *flakyBackend) FetchPartitions(keys []PartKey, visit func(int, []byte) error) error {
	if f.fetchesLeft.Add(-1) < 0 {
		return errLostWorker
	}
	return f.Loopback.FetchPartitions(keys, visit)
}

// TestShufflePlaneErrorsFailTheJob pins that the shuffle plane is
// authoritative: a ship or fetch window that fails fails the job with
// the backend's error wrapped (never a fallback to in-process data),
// the job is still recorded, and whatever had been shipped is released.
func TestShufflePlaneErrorsFailTheJob(t *testing.T) {
	lines := []string{"a b a", "b c", "a", "d e f g h i j k"}
	for _, tc := range []struct {
		name           string
		ships, fetches int64
		want           string
	}{
		{"ship", 1, 1 << 30, "shuffle ship"},
		{"fetch", 1 << 30, 1, "shuffle fetch"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := testCluster(4)
			fb := &flakyBackend{Loopback: NewLoopback()}
			fb.shipsLeft.Store(tc.ships)
			fb.fetchesLeft.Store(tc.fetches)
			c.SetBackend(fb)
			if err := WriteFile(c, "lines", lines, func(s string) int64 { return int64(len(s)) }); err != nil {
				t.Fatal(err)
			}
			_, _, err := Run(c, Job[string, int, string]{
				Name: "words",
				Inputs: []Input[string, int]{MapInput("lines", func(line string, emit func(string, int)) {
					for _, w := range strings.Fields(line) {
						emit(w, 1)
					}
				})},
				Reduce:    func(k string, _ []int, emit func(string)) { emit(k) },
				Partition: func(k string) uint64 { return uint64(len(k)) + uint64(k[0]) },
			})
			if !errors.Is(err, errLostWorker) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want a wrapped %q failure, got %v", tc.want, err)
			}
			if jobs := c.Jobs(); len(jobs) != 1 {
				t.Fatalf("failed job not recorded: %d jobs", len(jobs))
			}
			fb.mu.Lock()
			defer fb.mu.Unlock()
			if len(fb.parts) != 0 {
				t.Fatalf("%d partitions of the failed job were never released", len(fb.parts))
			}
		})
	}
}

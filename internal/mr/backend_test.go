package mr

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/haten2/haten2/internal/dfs"
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

// TestShufflePlaneErrorsFailTheJob pins every exit that abandons a job
// after its map phase has begun. The shuffle plane is authoritative: a
// ship or fetch window that fails fails the job with the backend's error
// wrapped (never a fallback to in-process data). Exhaustion after some
// tasks have shipped, a fault plan that fails the job, an OutputPart out
// of range and an output name that is taken fail it too, in process and
// on the backend, at every pool width. Each failed job is still
// recorded, once, whatever had been shipped is released, and every slab
// the job borrowed from the typed pools is back.
func TestShufflePlaneErrorsFailTheJob(t *testing.T) {
	lines := []string{"a b a", "b c", "a", "d e f g h i j k"}
	const never = 1 << 30
	for _, tc := range []struct {
		name           string
		ships, fetches int64 // windows that succeed before the backend fails
		backendOnly    bool
		limit          int64 // MaxShuffleRecords
		plan           *FaultPlan
		job            func(*Job[string, int, string])
		want           func(error) bool
	}{
		{name: "ship", ships: 1, fetches: never, backendOnly: true,
			want: func(err error) bool {
				return errors.Is(err, errLostWorker) && strings.Contains(err.Error(), "shuffle ship")
			}},
		{name: "fetch", ships: never, fetches: 1, backendOnly: true,
			want: func(err error) bool {
				return errors.Is(err, errLostWorker) && strings.Contains(err.Error(), "shuffle fetch")
			}},
		{name: "exhausted", ships: never, fetches: never, limit: 5,
			want: func(err error) bool { var e *ErrResourceExhausted; return errors.As(err, &e) && e.ShuffleRecords == 6 }},
		{name: "fault-plan", ships: never, fetches: never, plan: &FaultPlan{Seed: 1, FailureRate: 1},
			want: func(err error) bool { var e *ErrJobFailed; return errors.As(err, &e) && e.Phase == "map" }},
		{name: "output-part", ships: never, fetches: never,
			job: func(j *Job[string, int, string]) {
				j.Outputs, j.OutputPart = []string{"short", "long"}, func(k string) int { return len(k) + 1 }
			},
			want: func(err error) bool { return err != nil && strings.Contains(err.Error(), "outside its 2 outputs") }},
		{name: "output-exists", ships: never, fetches: never,
			job:  func(j *Job[string, int, string]) { j.Outputs = []string{"lines"} },
			want: func(err error) bool { var e *dfs.ErrExist; return errors.As(err, &e) && e.Name == "lines" }},
	} {
		for _, backend := range []string{"flaky", "in-process"} {
			if tc.backendOnly && backend != "flaky" {
				continue
			}
			t.Run(tc.name+"/"+backend, func(t *testing.T) {
				for _, procs := range []int{1, 2, 4} {
					t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
						defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
						lentBefore := Lent()
						c := NewCluster(Config{Machines: 4, SlotsPerMachine: 2, MaxShuffleRecords: tc.limit})
						fb := &flakyBackend{Loopback: NewLoopback()}
						fb.shipsLeft.Store(tc.ships)
						fb.fetchesLeft.Store(tc.fetches)
						if backend == "flaky" {
							c.SetBackend(fb)
						}
						if err := WriteFile(c, "lines", lines, func(s string) int64 { return int64(len(s)) }); err != nil {
							t.Fatal(err)
						}
						c.InstallFaultPlan(tc.plan)
						job := Job[string, int, string]{
							Name: "words",
							Inputs: []Input[string, int]{MapInput("lines", func(line string, emit func(string, int)) {
								for _, w := range strings.Fields(line) {
									emit(w, 1)
								}
							})},
							Reduce:    func(k string, _ []int, emit func(string)) { emit(k) },
							Partition: func(k string) uint64 { return uint64(len(k)) + uint64(k[0]) },
						}
						if tc.job != nil {
							tc.job(&job)
						}
						if _, _, err := Run(c, job); !tc.want(err) {
							t.Fatalf("unexpected failure: %v", err)
						}
						// A failed job gives back every slab it borrowed (the
						// count moves only under the race detector).
						if n := Lent() - lentBefore; n != 0 {
							t.Fatalf("%+d slabs still out after the failed job", n)
						}
						if jobs := c.Jobs(); len(jobs) != 1 {
							t.Fatalf("failed job not recorded once: %d jobs", len(jobs))
						}
						if tc.name == "exhausted" && backend == "flaky" && fb.shipsLeft.Load() == never {
							t.Fatal("the job was exhausted before any task shipped")
						}
						fb.mu.Lock()
						defer fb.mu.Unlock()
						if len(fb.parts) != 0 {
							t.Fatalf("%d partitions of the failed job were never released", len(fb.parts))
						}
					})
				}
			})
		}
	}
}

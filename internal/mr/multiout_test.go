package mr

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/haten2/haten2/internal/dfs"
)

// moRec is the MultipleOutputs tests' output record: a type of their
// own, so the typed pools TestMultipleOutputsCreateFailure inspects hold
// only what these tests put there.
type moRec struct{ K, V int64 }

func moSize(r moRec) int64 { return 8 + r.V&3 }

// moPart sends even keys to part 0 and odd ones to part 2, so part 1
// receives nothing and must still be published as a valid empty file.
func moPart(k int64) int { return int(k&1) * 2 }

var moFiles = []string{"mo/0", "mo/1", "mo/2"}

// moJob emits one record per value of a key. With two or more outputs
// the records go to them through moPart; with one, everything goes to
// that file and comes back from Run — the oracle.
func moJob(outputs ...string) Job[int64, int64, moRec] {
	job := Job[int64, int64, moRec]{
		Name: "multi",
		Inputs: []Input[int64, int64]{MapInput("in", func(x int64, emit func(int64, int64)) {
			emit(x%37, x)
			emit(x%11, -x)
		})},
		Reduce: func(k int64, vs []int64, emit func(moRec)) {
			for _, v := range vs {
				emit(moRec{k, v})
			}
		},
		Partition: HashInt64,
		BlockKV:   gobCodec[int64, int64](),
		OutSize:   moSize,
		Outputs:   outputs,
	}
	if len(outputs) > 1 {
		job.OutputPart = moPart
	}
	return job
}

func moCluster(t *testing.T, loopback bool, plan *FaultPlan) *Cluster {
	t.Helper()
	c := NewCluster(Config{Machines: 4, SlotsPerMachine: 2})
	if loopback {
		c.SetBackend(NewLoopback())
	}
	items := make([]int64, 3000)
	for i := range items {
		items[i] = int64(i)
	}
	if err := WriteFile(c, "in", items, func(int64) int64 { return 8 }); err != nil {
		t.Fatal(err)
	}
	c.InstallFaultPlan(plan)
	return c
}

// TestMultipleOutputsMatchSingleOutput holds a MultipleOutputs job to the
// same job with one output, filtered by part: each part file holds the
// oracle's records of that part in the oracle's order and is sized at
// their OutSize total, Run returns part 0, and the job's stats equal the
// oracle's. Every leg runs in process and across the Loopback seam, at
// GOMAXPROCS 1 (the parts continue one buffer per part) and 2 and 4
// (each part gathered once), with and without a FaultPlan. A second job then reads all three
// parts, the empty one included.
func TestMultipleOutputsMatchSingleOutput(t *testing.T) {
	plans := []*FaultPlan{nil, {Seed: 3, FailureRate: 0.3, StragglerRate: 0.2, MaxAttempts: 20}}
	for _, procs := range []int{1, 2, 4} {
		for _, loopback := range []bool{false, true} {
			for _, plan := range plans {
				t.Run(fmt.Sprintf("procs=%d/loopback=%v/faults=%v", procs, loopback, plan != nil), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					oc := moCluster(t, loopback, plan)
					want, wantSt, err := Run(oc, moJob("all"))
					if err != nil {
						t.Fatal(err)
					}
					c := moCluster(t, loopback, plan)
					got, st, err := Run(c, moJob(moFiles...))
					if err != nil {
						t.Fatal(err)
					}
					if st != wantSt {
						t.Fatalf("stats differ from the single-output job's:\n%+v\n%+v", st, wantSt)
					}
					for p, f := range moFiles {
						var part []moRec
						var bytes int64
						for _, r := range want {
							if moPart(r.K) == p {
								part, bytes = append(part, r), bytes+moSize(r)
							}
						}
						recs, err := ReadFile[moRec](c, f)
						if err != nil {
							t.Fatal(err)
						}
						if !slices.Equal(recs, part) {
							t.Fatalf("part %d holds %d records, the oracle's part has %d (or they differ in order)", p, len(recs), len(part))
						}
						if p == 0 && !slices.Equal(got, part) {
							t.Fatalf("Run returned %d records, not part 0's %d", len(got), len(part))
						}
						if size, err := c.FS().Size(f); err != nil || size != bytes {
							t.Fatalf("part %d is %d bytes (%v), its records' OutSize total is %d", p, size, err, bytes)
						}
						if (p == 1) != (len(part) == 0) {
							t.Fatalf("part %d has %d records: the test wants exactly part 1 empty", p, len(part))
						}
					}
					var inputs []Input[int64, int64]
					for _, f := range moFiles {
						inputs = append(inputs, MapInput(f, func(r moRec, emit func(int64, int64)) { emit(r.K, r.V) }))
					}
					merged, _, err := Run(c, Job[int64, int64, int64]{
						Name:      "merge-parts",
						Inputs:    inputs,
						Reduce:    func(k int64, vs []int64, emit func(int64)) { emit(int64(len(vs))) },
						Partition: HashInt64,
						BlockKV:   gobCodec[int64, int64](),
					})
					if err != nil {
						t.Fatal(err)
					}
					var n int64
					for _, m := range merged {
						n += m
					}
					if n != int64(len(want)) {
						t.Fatalf("the merge job read %d records from the parts, want %d", n, len(want))
					}
				})
			}
		}
	}
}

// TestMultipleOutputsOneOutputIsTheFile: one output is the one-part
// case. Run's result is the file's block itself — the same backing
// array BlockView lends, not a copy — and the job's OutputBytes and the
// DFS's BytesWritten both equal the records' OutSize total, charged
// once. In process and across the Loopback seam, at GOMAXPROCS 1 (the
// last reducer's buffer is the part) and 4 (the part is gathered).
func TestMultipleOutputsOneOutputIsTheFile(t *testing.T) {
	for _, procs := range []int{1, 4} {
		for _, loopback := range []bool{false, true} {
			t.Run(fmt.Sprintf("procs=%d/loopback=%v", procs, loopback), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				c := moCluster(t, loopback, nil)
				written := c.FS().Stats().BytesWritten
				got, st, err := Run(c, moJob("one"))
				if err != nil {
					t.Fatal(err)
				}
				written = c.FS().Stats().BytesWritten - written
				payload, n, err := c.FS().BlockView("one")
				if err != nil {
					t.Fatal(err)
				}
				blk := payload.([]moRec)
				if len(got) == 0 || n != len(got) || &blk[0] != &got[0] {
					t.Fatalf("Run returned %d records that are not the file's %d-record block", len(got), n)
				}
				var bytes int64
				for _, r := range got {
					bytes += moSize(r)
				}
				if st.OutputBytes != bytes || written != bytes {
					t.Fatalf("OutputBytes %d and DFS BytesWritten %d, want the OutSize total %d", st.OutputBytes, written, bytes)
				}
			})
		}
	}
}

// TestMultipleOutputsCreateFailure: a later part whose file cannot be
// created fails the job with the DFS's typed error, publishes no part —
// not even those created before it — and returns the reducers' part
// slabs to the pool.
func TestMultipleOutputsCreateFailure(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P: what is pooled can be taken back
	c := moCluster(t, false, nil)
	if err := WriteFile(c, moFiles[2], []moRec{{1, 1}}, moSize); err != nil {
		t.Fatal(err)
	}
	for getSlice[moRec](0) != nil {
	}
	_, _, err := Run(c, moJob(moFiles...))
	var ee *dfs.ErrExist
	if !errors.As(err, &ee) || ee.Name != moFiles[2] || !strings.Contains(err.Error(), `"multi"`) {
		t.Fatalf("want the job-named *dfs.ErrExist of %s, got %v", moFiles[2], err)
	}
	for _, f := range moFiles[:2] {
		if c.FS().Exists(f) {
			t.Fatalf("part %s was published by a failed job", f)
		}
	}
	if aborted := c.FS().Stats().FilesAborted; aborted != 2 {
		t.Fatalf("%d staged parts aborted, want 2", aborted)
	}
	if raceEnabled {
		return
	}
	// Every record of part 0 sat in one buffer (the pool is one wide).
	even := 0
	for x := 0; x < 3000; x++ {
		even += 1 - x%37&1 + 1 - x%11&1
	}
	if s := getSlice[moRec](0); cap(s) < even {
		t.Fatalf("the largest pooled slab holds %d records: part 0's %d were not returned", cap(s), even)
	}
}

// TestMultipleOutputsMisuse: OutputPart without two or more outputs,
// outputs without it, and a part outside the outputs are errors naming
// the job, never a panic, and leave no part behind.
func TestMultipleOutputsMisuse(t *testing.T) {
	c := moCluster(t, false, nil)
	noPart := moJob(moFiles...)
	noPart.OutputPart = nil
	onePart := moJob("one")
	onePart.OutputPart = moPart
	for _, tc := range []struct {
		name string
		job  Job[int64, int64, moRec]
	}{
		{"part without outputs", Job[int64, int64, moRec]{Name: "multi", Inputs: noPart.Inputs, Reduce: noPart.Reduce, Partition: HashInt64, OutputPart: moPart}},
		{"part with one output", onePart},
		{"outputs without part", noPart},
		{"part too large", func() Job[int64, int64, moRec] {
			j := moJob(moFiles...)
			j.OutputPart = func(k int64) int { return int(k) }
			return j
		}()},
		{"negative part", func() Job[int64, int64, moRec] {
			j := moJob(moFiles...)
			j.OutputPart = func(int64) int { return -1 }
			return j
		}()},
	} {
		_, _, err := Run(c, tc.job)
		if err == nil || !strings.Contains(err.Error(), `"multi"`) {
			t.Fatalf("%s: want an error naming the job, got %v", tc.name, err)
		}
		for _, f := range append(moFiles, "one") {
			if c.FS().Exists(f) {
				t.Fatalf("%s: %s was published", tc.name, f)
			}
		}
	}
}

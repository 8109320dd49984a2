package mr

import (
	"errors"
	"slices"
	"strings"
	"testing"
)

func TestMapEmitsNothing(t *testing.T) {
	c := testCluster(2)
	WriteFile(c, "in", []int64{1, 2, 3}, func(int64) int64 { return 8 })
	out, st, err := Run(c, Job[int64, int64, int64]{
		Name:      "silent",
		Inputs:    []Input[int64, int64]{MapInput("in", func(int64, func(int64, int64)) {})},
		Reduce:    func(k int64, vs []int64, emit func(int64)) { emit(k) },
		Partition: HashInt64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("out=%v", out)
	}
	if st.InputRecords != 3 {
		t.Fatalf("input records %d", st.InputRecords)
	}
}

func TestExtraShuffleAloneTripsLimit(t *testing.T) {
	c := NewCluster(Config{Machines: 1, MaxShuffleRecords: 100})
	WriteFile(c, "in", []int64{1}, func(int64) int64 { return 8 })
	_, _, err := Run(c, Job[int64, int64, int64]{
		Name:                "phantom",
		Inputs:              []Input[int64, int64]{MapInput("in", func(r int64, emit func(int64, int64)) { emit(0, 1) })},
		Reduce:              func(k int64, vs []int64, emit func(int64)) { emit(k) },
		Partition:           HashInt64,
		ExtraShuffleRecords: 1000,
		ExtraShuffleBytes:   8000,
	})
	var re *ErrResourceExhausted
	if !errors.As(err, &re) {
		t.Fatalf("want exhaustion from phantom charge, got %v", err)
	}
	if re.ShuffleRecords < 1000 {
		t.Fatalf("phantom records not counted: %d", re.ShuffleRecords)
	}
}

func TestExtraShuffleCountsTowardSimTime(t *testing.T) {
	run := func(extra int64) float64 {
		c := testCluster(2)
		WriteFile(c, "in", []int64{1}, func(int64) int64 { return 8 })
		_, st, err := Run(c, Job[int64, int64, int64]{
			Name:                "timed",
			Inputs:              []Input[int64, int64]{MapInput("in", func(r int64, emit func(int64, int64)) { emit(0, 1) })},
			Reduce:              func(k int64, vs []int64, emit func(int64)) { emit(k) },
			Partition:           HashInt64,
			ExtraShuffleRecords: extra,
			ExtraShuffleBytes:   extra * 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		return st.SimSeconds
	}
	if run(10_000_000) <= run(0) {
		t.Fatal("phantom shuffle should increase simulated time")
	}
}

func TestDuplicateOutputFileFails(t *testing.T) {
	c := testCluster(1)
	WriteFile(c, "in", []int64{1}, func(int64) int64 { return 8 })
	job := Job[int64, int64, int64]{
		Name:      "dup",
		Inputs:    []Input[int64, int64]{MapInput("in", func(r int64, emit func(int64, int64)) { emit(0, 1) })},
		Reduce:    func(k int64, vs []int64, emit func(int64)) { emit(k) },
		Partition: HashInt64,
		Outputs:   []string{"out"},
	}
	if _, _, err := Run(c, job); err != nil {
		t.Fatal(err)
	}
	// HDFS files are write-once: a second job writing the same path
	// must fail loudly rather than silently overwrite.
	if _, _, err := Run(c, job); err == nil {
		t.Fatal("second write to same output accepted")
	}
}

func TestValuesGroupedPerKeyInTaskOrder(t *testing.T) {
	// Values for one key must arrive in deterministic (task, emission)
	// order so float summation is reproducible.
	c := NewCluster(Config{Machines: 1, SlotsPerMachine: 1})
	WriteFile(c, "in", []int64{10, 20, 30}, func(int64) int64 { return 8 })
	out, _, err := Run(c, Job[int64, int64, []int64]{
		Name:   "order",
		Inputs: []Input[int64, int64]{MapInput("in", func(r int64, emit func(int64, int64)) { emit(0, r) })},
		Reduce: func(k int64, vs []int64, emit func([]int64)) {
			emit(append([]int64(nil), vs...))
		},
		Partition: HashInt64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || len(out[0]) != 3 {
		t.Fatalf("out=%v", out)
	}
	if out[0][0] != 10 || out[0][1] != 20 || out[0][2] != 30 {
		t.Fatalf("values out of order: %v", out[0])
	}
}

func TestJobsLogPreservesOrder(t *testing.T) {
	c := testCluster(1)
	WriteFile(c, "in", []int64{1}, func(int64) int64 { return 8 })
	for _, name := range []string{"first", "second", "third"} {
		_, _, err := Run(c, Job[int64, int64, int64]{
			Name:      name,
			Inputs:    []Input[int64, int64]{MapInput("in", func(r int64, emit func(int64, int64)) { emit(0, 1) })},
			Reduce:    func(k int64, vs []int64, emit func(int64)) { emit(k) },
			Partition: HashInt64,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	jobs := c.Jobs()
	if len(jobs) != 3 || jobs[0].Name != "first" || jobs[2].Name != "third" {
		t.Fatalf("job log %+v", jobs)
	}
}

// TestFileEdgesAreTypedErrors pins the three places a file or input of
// the wrong shape used to reach an unchecked assertion or a nil map
// function: each is now an error naming what was wrong, or — for a file
// published without a block — a valid empty file.
func TestFileEdgesAreTypedErrors(t *testing.T) {
	reduce := func(k int64, vs []int64, emit func(int64)) { emit(k) }
	run := func(c *Cluster, in Input[int64, int64]) (JobStats, error) {
		_, st, err := Run(c, Job[int64, int64, int64]{
			Name: "edge", Inputs: []Input[int64, int64]{in}, Reduce: reduce, Partition: HashInt64,
		})
		return st, err
	}
	cases := []struct {
		name string
		do   func(c *Cluster) error
		want []string // substrings of the error; nil means success
	}{
		{"ReadFile of another element type", func(c *Cluster) error {
			_, err := ReadFile[string](c, "ints")
			return err
		}, []string{`"ints"`, "[]int64", "[]string"}},
		{"Run with an Input not built by MapInput", func(c *Cluster) error {
			st, err := run(c, Input[int64, int64]{File: "ints"})
			if len(c.Jobs()) != 0 || st.MapTasks != 0 {
				t.Errorf("rejected job was started: %+v", st)
			}
			return err
		}, []string{`"edge"`, `"ints"`, "MapInput"}},
		{"file published without a block", func(c *Cluster) error {
			w, err := c.FS().Create("empty")
			if err != nil {
				return err
			}
			w.Close()
			got, err := ReadFile[int64](c, "empty")
			if err != nil || got == nil || len(got) != 0 {
				t.Errorf("ReadFile = %v, %v; want an empty slice", got, err)
			}
			st, err := run(c, MapInput("empty", func(int64, func(int64, int64)) { t.Error("map called") }))
			if st.MapTasks != 0 || st.InputRecords != 0 || st.ShuffleRecords != 0 || st.OutputRecords != 0 {
				t.Errorf("empty file mapped: %+v", st)
			}
			return err
		}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Loopback as well: the mirror must skip the block-less file
			// rather than trip over its nil payload.
			for _, b := range []Backend{nil, NewLoopback()} {
				c := testCluster(2)
				c.SetBackend(b)
				if err := WriteFile(c, "ints", []int64{1, 2, 3}, func(int64) int64 { return 8 }); err != nil {
					t.Fatal(err)
				}
				err := tc.do(c)
				if tc.want == nil {
					if err != nil {
						t.Fatal(err)
					}
					continue
				}
				if err == nil {
					t.Fatal("no error")
				}
				for _, w := range tc.want {
					if !strings.Contains(err.Error(), w) {
						t.Errorf("error %q does not name %s", err, w)
					}
				}
			}
		})
	}
}

// TestSplitBounds pins how a file's records are cut into map tasks:
// contiguous, covering, ceil(count/n) records per split with the
// shortfall in the trailing ones.
func TestSplitBounds(t *testing.T) {
	cases := []struct {
		count, n int
		want     []int
	}{
		{10, 4, []int{0, 3, 6, 9, 10}},
		{2, 5, []int{0, 1, 2, 2, 2, 2}}, // fewer records than splits: trailing splits empty
		{0, 3, []int{0, 0, 0, 0}},
		{2, 0, []int{0, 2}}, // n <= 0 degrades to a single split
	}
	for _, tc := range cases {
		if got := splitBounds(tc.count, tc.n); !slices.Equal(got, tc.want) {
			t.Errorf("splitBounds(%d, %d) = %v, want %v", tc.count, tc.n, got, tc.want)
		}
	}
}

package mr

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/haten2/haten2/internal/dfs"
)

// TestTypedErrorsSurviveWrapping pins the error-path contract: every
// terminal job error is a typed struct that callers can match with
// errors.As even after arbitrary %w wrapping, and carries the job name.
func TestTypedErrorsSurviveWrapping(t *testing.T) {
	wrap := func(err error) error {
		return fmt.Errorf("driver: iteration 3: %w", fmt.Errorf("stage: %w", err))
	}

	re := &ErrResourceExhausted{Job: "imhp", ShuffleRecords: 10, Limit: 5}
	var gotRE *ErrResourceExhausted
	if !errors.As(wrap(re), &gotRE) || gotRE.Job != "imhp" {
		t.Fatalf("ErrResourceExhausted lost through wrapping: %v", wrap(re))
	}

	jf := &ErrJobFailed{Job: "imhp", Phase: "reduce", Task: 7, Attempts: 4}
	var gotJF *ErrJobFailed
	if !errors.As(wrap(jf), &gotJF) || gotJF.Job != "imhp" || gotJF.Attempts != 4 {
		t.Fatalf("ErrJobFailed lost through wrapping: %v", wrap(jf))
	}

	ck := &ErrClusterKilled{Job: "imhp", AfterJobs: 9}
	var gotCK *ErrClusterKilled
	if !errors.As(wrap(ck), &gotCK) || gotCK.AfterJobs != 9 {
		t.Fatalf("ErrClusterKilled lost through wrapping: %v", wrap(ck))
	}

	for _, err := range []error{re, jf, ck} {
		if !strings.Contains(err.Error(), `"imhp"`) {
			t.Fatalf("job name missing from %T message: %v", err, err)
		}
	}

	// Storage errors from the DFS layer survive the same wrapping, and
	// ErrDataLoss additionally unwraps to the checksum mismatch that
	// exhausted the replicas.
	dl := &dfs.ErrDataLoss{File: "fac/h", Block: 2, Replicas: 3,
		Cause: &dfs.ErrCorrupt{File: "fac/h", Block: 2, Replica: 1}}
	var gotDL *dfs.ErrDataLoss
	if !errors.As(wrap(dl), &gotDL) || gotDL.File != "fac/h" || gotDL.Replicas != 3 {
		t.Fatalf("ErrDataLoss lost through wrapping: %v", wrap(dl))
	}
	var gotEC *dfs.ErrCorrupt
	if !errors.As(wrap(dl), &gotEC) || gotEC.Block != 2 || gotEC.Replica != 1 {
		t.Fatalf("ErrCorrupt lost through ErrDataLoss wrapping: %v", wrap(dl))
	}
}

// TestTypedErrorsStorageDataLoss drives a real job into a block with no
// good replica and checks the dfs error types flow through mr's
// job-name wrapper end-to-end.
func TestTypedErrorsStorageDataLoss(t *testing.T) {
	c := NewClusterWithFS(Config{Machines: 2},
		dfs.New(dfs.Options{BlockSize: 64, Replication: 1}))
	WriteFile(c, "in", []int64{1, 2, 3, 4}, func(int64) int64 { return 40 })
	// Replication 1 with certain corruption: the first read finds every
	// (single) replica bad.
	c.InstallFaultPlan(&FaultPlan{Seed: 7, BlockCorruptRate: 1})
	_, _, err := Run(c, Job[int64, int64, int64]{
		Name:      "doomed",
		Inputs:    []Input[int64, int64]{MapInput("in", func(r int64, emit func(int64, int64)) { emit(r, 1) })},
		Reduce:    func(k int64, vs []int64, emit func(int64)) { emit(k) },
		Partition: HashInt64,
	})
	var dl *dfs.ErrDataLoss
	if !errors.As(err, &dl) || dl.File != "in" || dl.Replicas != 1 {
		t.Fatalf("job error does not carry ErrDataLoss: %v", err)
	}
	var ec *dfs.ErrCorrupt
	if !errors.As(err, &ec) || ec.File != "in" {
		t.Fatalf("job error does not unwrap to ErrCorrupt: %v", err)
	}
	if !strings.Contains(err.Error(), `"doomed"`) {
		t.Fatalf("storage error does not name the job: %v", err)
	}
}

// TestRunErrorsCarryJobName audits Run's own error paths: validation
// failures name the job, and wrapped DFS errors stay matchable.
func TestRunErrorsCarryJobName(t *testing.T) {
	c := testCluster(1)
	reduce := func(k int64, vs []int64, emit func(int64)) { emit(k) }
	mapper := func(r int64, emit func(int64, int64)) { emit(0, 1) }
	in := []Input[int64, int64]{MapInput("in", mapper)}

	cases := []struct {
		name string
		job  Job[int64, int64, int64]
	}{
		{"no inputs", Job[int64, int64, int64]{Name: "noin", Reduce: reduce, Partition: HashInt64}},
		{"no reduce", Job[int64, int64, int64]{Name: "nored", Inputs: in, Partition: HashInt64}},
		{"no partition", Job[int64, int64, int64]{Name: "nopart", Inputs: in, Reduce: reduce}},
	}
	for _, tc := range cases {
		_, _, err := Run(c, tc.job)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", tc.job.Name)) {
			t.Fatalf("%s: error does not name the job: %v", tc.name, err)
		}
	}

	// A missing input file surfaces the underlying *dfs.ErrNotExist
	// through the job-name wrapper.
	_, _, err := Run(c, Job[int64, int64, int64]{
		Name: "missing-input", Inputs: in, Reduce: reduce, Partition: HashInt64,
	})
	var ne *dfs.ErrNotExist
	if !errors.As(err, &ne) || ne.Name != "in" {
		t.Fatalf("dfs error lost through wrapping: %v", err)
	}
	if !strings.Contains(err.Error(), `"missing-input"`) {
		t.Fatalf("wrapped dfs error does not name the job: %v", err)
	}

	// An output-file collision likewise: *dfs.ErrExist plus the job name.
	WriteFile(c, "in", []int64{1}, func(int64) int64 { return 8 })
	WriteFile(c, "out", []int64{1}, func(int64) int64 { return 8 })
	_, _, err = Run(c, Job[int64, int64, int64]{
		Name: "clobber", Inputs: in, Reduce: reduce, Partition: HashInt64, Outputs: []string{"out"},
	})
	var ee *dfs.ErrExist
	if !errors.As(err, &ee) || ee.Name != "out" {
		t.Fatalf("output collision error lost: %v", err)
	}
	if !strings.Contains(err.Error(), `"clobber"`) {
		t.Fatalf("output collision error does not name the job: %v", err)
	}
}

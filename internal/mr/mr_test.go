package mr

import (
	"errors"
	"sort"
	"strings"
	"testing"
)

func testCluster(machines int) *Cluster {
	return NewCluster(Config{Machines: machines, SlotsPerMachine: 2})
}

// wordCount is the canonical smoke test: one input of strings, counts
// per word.
func runWordCount(t *testing.T, c *Cluster, lines []string) map[string]int {
	t.Helper()
	if err := WriteFile(c, "lines", lines, func(s string) int64 { return int64(len(s)) }); err != nil {
		t.Fatal(err)
	}
	type kv struct {
		Word  string
		Count int
	}
	out, _, err := Run(c, Job[string, int, kv]{
		Name: "wordcount",
		Inputs: []Input[string, int]{MapInput("lines", func(rec string, emit func(string, int)) {
			for _, w := range strings.Fields(rec) {
				emit(w, 1)
			}
		},
		)},
		Reduce: func(k string, vs []int, emit func(kv)) {
			s := 0
			for _, v := range vs {
				s += v
			}
			emit(kv{k, s})
		},
		Partition: func(k string) uint64 {
			var h uint64 = 14695981039346656037
			for i := 0; i < len(k); i++ {
				h = (h ^ uint64(k[i])) * 1099511628211
			}
			return h
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	for _, o := range out {
		got[o.Word] = o.Count
	}
	return got
}

func TestWordCount(t *testing.T) {
	c := testCluster(4)
	got := runWordCount(t, c, []string{"a b a", "b c", "a"})
	want := map[string]int{"a": 3, "b": 2, "c": 1}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("count[%s]=%d want %d", k, got[k], v)
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	lines := []string{"x y z", "z z y", "x", "w v u t s r q p o n m"}
	c1 := testCluster(3)
	c2 := testCluster(7) // different parallelism must not change results
	a := runWordCount(t, c1, lines)
	b := runWordCount(t, c2, lines)
	if len(a) != len(b) {
		t.Fatalf("different sizes: %v vs %v", a, b)
	}
	for k, v := range a {
		if b[k] != v {
			t.Fatalf("mismatch at %q: %d vs %d", k, v, b[k])
		}
	}
}

func TestJobStatsCounting(t *testing.T) {
	c := testCluster(2)
	if err := WriteFile(c, "nums", []int64{1, 2, 3, 4}, func(int64) int64 { return 8 }); err != nil {
		t.Fatal(err)
	}
	_, st, err := Run(c, Job[int64, int64, int64]{
		Name: "double",
		Inputs: []Input[int64, int64]{MapInput("nums", func(rec int64, emit func(int64, int64)) {
			emit(rec%2, rec)
		},
		)},
		Reduce: func(k int64, vs []int64, emit func(int64)) {
			var s int64
			for _, v := range vs {
				s += v
			}
			emit(s)
		},
		Partition: HashInt64,
		BlockKV: &BlockSizer[int64, int64]{
			Pair:   func(_, _, _, _ int64) int64 { return 16 },
			Header: func(int) int64 { return 0 },
		},
		OutSize: func(int64) int64 { return 8 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.InputRecords != 4 || st.InputBytes != 32 {
		t.Fatalf("input: %+v", st)
	}
	if st.ShuffleRecords != 4 || st.ShuffleBytes != 64 {
		t.Fatalf("shuffle: %+v", st)
	}
	if st.OutputRecords != 2 || st.OutputBytes != 16 {
		t.Fatalf("output: %+v", st)
	}
	if st.SimSeconds <= 0 {
		t.Fatal("no simulated time")
	}
	tot := c.Totals()
	if tot.Jobs != 1 || tot.ShuffleRecords != 4 || tot.MaxShuffleRecords != 4 {
		t.Fatalf("totals: %+v", tot)
	}
}

func TestMultipleInputs(t *testing.T) {
	// Two files with different record types feeding one shuffle — the
	// IMHP pattern.
	c := testCluster(2)
	WriteFile(c, "as", []int64{1, 2}, func(int64) int64 { return 8 })
	WriteFile(c, "bs", []string{"10", "20"}, func(string) int64 { return 2 })
	out, _, err := Run(c, Job[int64, int64, int64]{
		Name: "join",
		Inputs: []Input[int64, int64]{
			MapInput("as", func(rec int64, emit func(int64, int64)) { emit(0, rec) }),
			MapInput("bs", func(rec string, emit func(int64, int64)) {
				emit(0, int64(len(rec)))
			}),
		},
		Reduce: func(k int64, vs []int64, emit func(int64)) {
			var s int64
			for _, v := range vs {
				s += v
			}
			emit(s)
		},
		Partition: HashInt64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0] != 1+2+2+2 {
		t.Fatalf("out=%v", out)
	}
}

func TestOutputFileMaterialization(t *testing.T) {
	c := testCluster(2)
	WriteFile(c, "in", []int64{5, 6}, func(int64) int64 { return 8 })
	_, st, err := Run(c, Job[int64, int64, int64]{
		Name:   "pass",
		Inputs: []Input[int64, int64]{MapInput("in", func(rec int64, emit func(int64, int64)) { emit(rec, rec) })},
		Reduce: func(k int64, vs []int64, emit func(int64)) {
			for _, v := range vs {
				emit(v)
			}
		},
		Partition: HashInt64,
		Outputs:   []string{"out"},
		OutSize:   func(int64) int64 { return 8 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.OutputRecords != 2 {
		t.Fatalf("stats: %+v", st)
	}
	back, err := ReadFile[int64](c, "out")
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(back, func(i, j int) bool { return back[i] < back[j] })
	if len(back) != 2 || back[0] != 5 || back[1] != 6 {
		t.Fatalf("back=%v", back)
	}
}

func TestResourceExhaustion(t *testing.T) {
	c := NewCluster(Config{Machines: 2, MaxShuffleRecords: 10})
	WriteFile(c, "in", []int64{0, 1, 2, 3}, func(int64) int64 { return 8 })
	_, _, err := Run(c, Job[int64, int64, int64]{
		Name: "explode",
		Inputs: []Input[int64, int64]{MapInput("in", func(rec int64, emit func(int64, int64)) {
			for i := int64(0); i < 100; i++ {
				emit(i, 1)
			}
		})},
		Reduce:    func(k int64, vs []int64, emit func(int64)) { emit(0) },
		Partition: HashInt64,
	})
	var re *ErrResourceExhausted
	if !errors.As(err, &re) {
		t.Fatalf("want ErrResourceExhausted, got %v", err)
	}
	if re.Limit != 10 {
		t.Fatalf("limit=%d", re.Limit)
	}
	// The failed job is still recorded (it consumed cluster time).
	if c.Totals().Jobs != 1 {
		t.Fatal("failed job not recorded")
	}
}

func TestJobValidation(t *testing.T) {
	c := testCluster(1)
	if _, _, err := Run(c, Job[int64, int64, int64]{Name: "no-inputs", Reduce: func(int64, []int64, func(int64)) {}, Partition: HashInt64}); err == nil {
		t.Fatal("missing inputs accepted")
	}
	WriteFile(c, "in", []int64{1}, func(int64) int64 { return 8 })
	in := []Input[int64, int64]{MapInput("in", func(rec int64, emit func(int64, int64)) {})}
	if _, _, err := Run(c, Job[int64, int64, int64]{Name: "no-reduce", Inputs: in, Partition: HashInt64}); err == nil {
		t.Fatal("missing reduce accepted")
	}
	if _, _, err := Run(c, Job[int64, int64, int64]{Name: "no-part", Inputs: in, Reduce: func(int64, []int64, func(int64)) {}}); err == nil {
		t.Fatal("missing partition accepted")
	}
	if _, _, err := Run(c, Job[int64, int64, int64]{Name: "bad-file", Inputs: []Input[int64, int64]{MapInput("zzz", func(int64, func(int64, int64)) {})}, Reduce: func(int64, []int64, func(int64)) {}, Partition: HashInt64}); err == nil {
		t.Fatal("missing input file accepted")
	}
}

func TestCostModelShape(t *testing.T) {
	cm := DefaultCostModel()
	// A Fig.8-scale job: ~10⁸ nnz input, ~10⁹ shuffled records.
	st := JobStats{InputRecords: 1.4e8, ShuffleRecords: 2.9e9, ShuffleBytes: 1e11, InputBytes: 4e9, OutputBytes: 4e9}
	t10 := cm.JobTime(10, st)
	t40 := cm.JobTime(40, st)
	if t40 >= t10 {
		t.Fatalf("more machines should be faster on parallel work: T10=%v T40=%v", t10, t40)
	}
	// Speedup must be sublinear because of startup + coordination.
	if t10/t40 >= 4 {
		t.Fatalf("speedup %v should be sublinear", t10/t40)
	}
	// With enormous machine counts coordination dominates and time grows.
	if cm.JobTime(100000, st) <= cm.JobTime(40, st) {
		t.Fatal("coordination overhead should eventually dominate")
	}
}

func TestClusterDefaults(t *testing.T) {
	c := NewCluster(Config{})
	if c.Machines() != 1 || c.Workers() != 4 {
		t.Fatalf("defaults: machines=%d workers=%d", c.Machines(), c.Workers())
	}
}

func TestResetCounters(t *testing.T) {
	c := testCluster(2)
	runWordCount(t, c, []string{"a"})
	c.ResetCounters()
	if c.Totals().Jobs != 0 || len(c.Jobs()) != 0 {
		t.Fatal("counters not reset")
	}
}

func TestHashSpread(t *testing.T) {
	// Sequential int64 keys must spread across reducers, not collide
	// into one.
	buckets := map[uint64]int{}
	for i := int64(0); i < 1000; i++ {
		buckets[HashInt64(i)%8]++
	}
	for b, n := range buckets {
		if n > 400 {
			t.Fatalf("bucket %d got %d of 1000 keys", b, n)
		}
	}
	pb := map[uint64]int{}
	for i := int64(0); i < 40; i++ {
		for j := int64(0); j < 25; j++ {
			pb[HashPair([2]int64{i, j})%8]++
		}
	}
	for b, n := range pb {
		if n > 400 {
			t.Fatalf("pair bucket %d got %d of 1000 keys", b, n)
		}
	}
}

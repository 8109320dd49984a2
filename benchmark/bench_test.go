package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"github.com/haten2/haten2/internal/mrproc"
)

func TestMain(m *testing.M) {
	// proc_parafac's workers are this test binary re-executed.
	mrproc.MaybeWorker()
	os.Exit(m.Run())
}

func names(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.Name)
	}
	sort.Strings(out)
	return out
}

func keys(m map[string]float64) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// selfTimes returns each span's duration minus the part its direct
// children cover.
func (r *recorder) selfTimes() []float64 {
	self := make([]float64, len(r.spans))
	for i, s := range r.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// TestSmokePipeline runs every workload's untraced and traced pass at
// smoke scale in this process: every verification check must pass, the
// passes must emit exactly the declared metrics, and the traced pass's
// span tree must be well-formed.
func TestSmokePipeline(t *testing.T) {
	ws, err := workloads("smoke")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		t.Run(w.Name, func(t *testing.T) {
			plain, err := runPass(w, 42, nil, 0, &profiler{})
			if err != nil {
				t.Fatal(err)
			}
			rec := newRecorder()
			traced, err := runPass(w, 42, rec, 0, &profiler{})
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []*passResult{plain, traced} {
				if p.Failed != 0 || p.Attempted < w.Queries {
					t.Errorf("%d of %d operations failed: %v", p.Failed, p.Attempted, p.Failures)
				}
			}
			if plain.ModelSHA != traced.ModelSHA {
				t.Errorf("model hash differs between passes: %s vs %s", plain.ModelSHA, traced.ModelSHA)
			}
			if got, want := keys(plain.EndToEnd), names(endToEnd); strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("end-to-end metrics\n got %v\nwant %v", got, want)
			}
			for k, v := range plain.EndToEnd {
				if !(v > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", k, v)
				}
			}
			// The driver adds the one metric that needs both kinds of pass.
			traced.Layers["bench.trace_overhead_pct"] = 0
			if got, want := keys(traced.Layers), names(perLayer); strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("per-layer metrics\n got %v\nwant %v", got, want)
			}
			for k, v := range traced.Layers {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("per-layer metric %s = %v", k, v)
				}
			}
			if w.Proc && traced.Layers["mrproc.partitions"] == 0 {
				t.Error("proc workload shipped no partitions")
			}

			if len(rec.stack) != 0 {
				t.Errorf("%d spans left open", len(rec.stack))
			}
			for i, s := range rec.spans {
				if s.End < s.Start {
					t.Errorf("span %d %s ends before it starts", i, s.Name)
				}
				if s.Parent >= i {
					t.Errorf("span %d %s has parent %d, not an earlier span", i, s.Name, s.Parent)
				} else if s.Parent >= 0 {
					if par := rec.spans[s.Parent]; s.Start < par.Start || s.End > par.End {
						t.Errorf("span %d %s [%g, %g] outside its parent %s [%g, %g]", i, s.Name, s.Start, s.End, par.Name, par.Start, par.End)
					}
				}
			}
			for i, self := range rec.selfTimes() {
				if self < -1e-9 {
					t.Errorf("span %d %s has self time %g", i, rec.spans[i].Name, self)
				}
			}
			var chrome bytes.Buffer
			if err := rec.writeChrome(&chrome); err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []map[string]any `json:"traceEvents"`
			}
			if err := json.Unmarshal(chrome.Bytes(), &doc); err != nil || len(doc.TraceEvents) != len(rec.spans) {
				t.Errorf("chrome trace: %v, %d events for %d spans", err, len(doc.TraceEvents), len(rec.spans))
			}
		})
	}
}

// TestBenchmarkJSON pins BENCHMARK.json to the code: the workloads, the
// metric names, units, directions and bounds, and the contract's limits.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var file struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if strings.Join(file.Command, " ") != "go run ./benchmark" || strings.Join(file.Paths, " ") != "benchmark" {
		t.Errorf("command %v, paths %v", file.Command, file.Paths)
	}
	if file.RunSeconds < 1 || file.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", file.RunSeconds)
	}
	ws, err := workloads("full")
	if err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(ws) || len(ws) < 2 || len(ws) > 8 {
		t.Fatalf("%d workloads in the file, %d in the code, want 2 to 8", len(file.Workloads), len(ws))
	}
	for i, w := range ws {
		if f := file.Workloads[i]; f.Name != w.Name || f.Why != w.Why || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: file has %q (%q), code %q (%q, %d chars)", i, f.Name, f.Why, w.Name, w.Why, len(w.Why))
		}
	}
	check := func(kind string, got []metric, want []metricDef, limit int) {
		if len(got) != len(want) || len(want) < 1 || len(want) > limit {
			t.Fatalf("%s: %d metrics in the file, %d in the code, limit %d", kind, len(got), len(want), limit)
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
				t.Errorf("%s metric %d: file has %+v, code %+v", kind, i, g, d)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s: direction %q", d.Name, d.Better)
			}
		}
	}
	check("end_to_end", file.EndToEnd, endToEnd, 16)
	check("per_layer", file.PerLayer, perLayer, 128)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s declared twice", d.Name)
		}
		seen[d.Name] = true
	}
	if d := endToEnd[0]; d.Name != "setup_s" || d.Unit != "s" || d.Better != "lower" {
		t.Errorf("first end-to-end metric is %+v, want setup_s in s, lower is better", d)
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

func TestStatsHelpers(t *testing.T) {
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-12 }
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("median odd = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %g", m)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
	// Expected values are Python's statistics.quantiles(v, n=4).
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{7}, 7, 7},
	} {
		if q1, q3 := quartiles(c.v); !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", c.v, q1, q3, c.q1, c.q3)
		}
	}
	if s := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); !near(s, 1) {
		t.Errorf("spread = %g, want 1", s)
	}
	asc := make([]float64, 101)
	for i := range asc {
		asc[i] = float64(i)
	}
	if p := percentile(asc, 0.99); p != 99 {
		t.Errorf("p99 = %g", p)
	}
	if p := percentile(asc, 0); p != 0 {
		t.Errorf("p0 = %g", p)
	}
	if m := midMean(asc); !near(m, 49.5) {
		t.Errorf("midMean = %g, want 49.5", m)
	}
	if m := midMean([]float64{4}); m != 4 {
		t.Errorf("midMean of one = %g", m)
	}
}

func TestVerdict(t *testing.T) {
	lower := func(bound float64, v ...float64) metricReport {
		return newMetricReport(metricDef{Name: "m", Unit: "s", Better: "lower", Bound: bound}, v)
	}
	higher := func(bound float64, v ...float64) metricReport {
		return newMetricReport(metricDef{Name: "m", Unit: "1/s", Better: "higher", Bound: bound}, v)
	}
	for _, c := range []struct {
		name string
		a, b metricReport
		want string
	}{
		{"within the bound", lower(0.1, 1.00, 1.01, 1.02), lower(0.1, 1.03, 1.04, 1.05), "same"},
		{"slower than the bound", lower(0.1, 1.00, 1.01, 1.02), lower(0.1, 1.20, 1.21, 1.22), "worse"},
		{"faster than the bound", lower(0.1, 1.00, 1.01, 1.02), lower(0.1, 0.80, 0.81, 0.82), "better"},
		{"higher is better", higher(0.1, 100, 101, 102), higher(0.1, 80, 81, 82), "worse"},
		{"noisy and overlapping", lower(0.1, 1.0, 1.3, 1.6), lower(0.1, 1.2, 1.5, 1.8), "unresolved"},
		{"noisy but every run apart", lower(0.1, 1.0, 1.3, 1.6), lower(0.1, 2.0, 2.6, 3.2), "worse"},
		{"noisy, apart and faster", higher(0.1, 1.0, 1.3, 1.6), higher(0.1, 2.0, 2.6, 3.2), "better"},
	} {
		if got := verdict(c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

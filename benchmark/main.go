// Command benchmark is the repo's one pinned pipeline benchmark: every
// workload runs generate → decompose → persist → serve, every pass in a
// cold process of its own at GOMAXPROCS=1, and one traced pass
// attributes the same pipeline to its layers. See README.md.
//
//	go run ./benchmark                        # all workloads, 7 passes each + traced pass
//	go run ./benchmark -workload W -seed N -seconds S -trace 0|1
//	go run ./benchmark -compare A.json B.json # verdict per workload × metric
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"github.com/haten2/haten2/internal/mrproc"
)

// minPasses is the fewest untraced passes a run reports a median over,
// however short -seconds is.
const minPasses = 3

// passTimeout bounds one child pass; a full-scale pass takes under 10 s.
const passTimeout = 150 * time.Second

type options struct {
	workload   string
	seed       int64
	seconds    float64
	passes     int
	runs       int
	trace      string
	scale      string
	out        string
	traceout   string
	cpuprofile string
	memprofile string
}

func main() {
	// A proc-backend worker is this same binary re-executed.
	mrproc.MaybeWorker()

	var o options
	flag.StringVar(&o.workload, "workload", "", "run only this workload (default: all four)")
	flag.Int64Var(&o.seed, "seed", 42, "seed of the generated inputs; run r of -runs uses seed+r")
	flag.Float64Var(&o.seconds, "seconds", 0, "measure for this long: untraced passes start until it has elapsed (overrides -passes)")
	flag.IntVar(&o.passes, "passes", 7, "untraced passes per run")
	flag.IntVar(&o.runs, "runs", 1, "whole runs per workload; with more than one, -out keeps one value per run")
	flag.StringVar(&o.trace, "trace", "both", "0: untraced passes only (end-to-end metrics); 1: traced pass only (per-layer metrics); both")
	flag.StringVar(&o.scale, "scale", "full", "full, or smoke for a seconds-long functional check")
	flag.StringVar(&o.out, "out", "", "write every run's values, medians and quartiles to this JSON file")
	flag.StringVar(&o.traceout, "traceout", "", "write the traced pass's spans to this file as Chrome trace JSON")
	flag.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile of one extra, unmeasured pass to this file")
	flag.StringVar(&o.memprofile, "memprofile", "", "write an allocation profile of one extra, unmeasured pass to this file")
	compare := flag.Bool("compare", false, "compare two -out files: benchmark -compare A.json B.json")
	child := flag.Bool("child", false, "internal: run one pass in this process and print its result")
	traced := flag.Bool("traced", false, "internal: with -child, run the traced pass")
	flag.Parse()

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = errors.New("-compare wants two -out files")
		} else {
			err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		}
	case *child:
		err = childMain(o, *traced)
	default:
		err = driverMain(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func selectWorkloads(o options) ([]workload, error) {
	all, err := workloads(o.scale)
	if err != nil || o.workload == "" {
		return all, err
	}
	var names []string
	for _, w := range all {
		if w.Name == o.workload {
			return []workload{w}, nil
		}
		names = append(names, w.Name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(names, ", "))
}

// childMain runs one pass in this process and prints its result as one
// JSON line.
func childMain(o options, traced bool) error {
	ws, err := selectWorkloads(o)
	if err != nil {
		return err
	}
	if len(ws) != 1 {
		return errors.New("-child needs -workload")
	}
	var rec *recorder
	if traced {
		rec = newRecorder()
	}
	res, err := runPass(ws[0], o.seed, rec, probeSeconds(o.scale), &profiler{cpu: o.cpuprofile, mem: o.memprofile})
	if err != nil {
		return err
	}
	if traced && o.traceout != "" {
		f, err := os.Create(o.traceout)
		if err != nil {
			return err
		}
		if err := rec.writeChrome(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// probeSeconds is the least time each layer probe repeats for.
func probeSeconds(scale string) float64 {
	if scale == "smoke" {
		return 0
	}
	return 0.2
}

// spawnPass runs one pass in a fresh child process with GOMAXPROCS=1
// exported to it (and through it to proc workers), waits for it, and
// parses its result. In-process repetitions are useless as samples —
// package-level buffer pools make the second decomposition allocate a
// fifth of the first — while cold processes repeat within a few percent.
func spawnPass(o options, w workload, seed int64, traced bool, extra ...string) (*passResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", "-workload", w.Name, "-seed", fmt.Sprint(seed), "-scale", o.scale}
	if traced {
		args = append(args, "-traced")
	}
	ctx, cancel := context.WithTimeout(context.Background(), passTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, append(args, extra...)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("pass of %s: %w", w.Name, err)
	}
	var res passResult
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("pass of %s: bad result: %w", w.Name, err)
	}
	return &res, nil
}

// runResult is one run of one workload: the medians over its untraced
// passes, the traced pass's layer metrics, and the operation counts.
type runResult struct {
	Seed      int64
	Passes    []*passResult
	EndToEnd  map[string]float64
	Layers    map[string]float64
	Attempted int
	Failed    int
	Failures  []string
	ModelSHA  string
}

func (r *runResult) add(p *passResult) {
	r.Attempted += p.Attempted
	r.Failed += p.Failed
	r.Failures = append(r.Failures, p.Failures...)
	// The model depends on the input alone, so every pass of a run —
	// traced or not — must save the same bytes.
	r.Attempted++
	switch {
	case r.ModelSHA == "":
		r.ModelSHA = p.ModelSHA
	case r.ModelSHA != p.ModelSHA:
		r.Failed++
		r.Failures = append(r.Failures, fmt.Sprintf("model hash: %s, earlier pass %s", p.ModelSHA, r.ModelSHA))
	}
}

// runWorkload makes one run: untraced passes for the end-to-end
// medians, then the traced pass for the layers.
func runWorkload(o options, w workload, seed int64) (*runResult, error) {
	r := &runResult{Seed: seed}
	t0 := now()
	done := func(n int) bool { return n >= o.passes }
	switch {
	case o.trace == "1":
		// Only the tracing overhead needs an untraced decompose_s.
		done = func(n int) bool { return n >= minPasses }
	case o.seconds > 0:
		done = func(n int) bool { return n >= minPasses && since(t0) >= o.seconds }
	}
	for n := 0; !done(n); n++ {
		p, err := spawnPass(o, w, seed, false)
		if err != nil {
			return nil, err
		}
		r.Passes = append(r.Passes, p)
		r.add(p)
	}
	r.EndToEnd = map[string]float64{}
	for _, m := range endToEnd {
		var vals []float64
		for _, p := range r.Passes {
			vals = append(vals, p.EndToEnd[m.Name])
		}
		r.EndToEnd[m.Name] = median(vals)
	}
	if o.cpuprofile != "" || o.memprofile != "" {
		var extra []string
		if o.cpuprofile != "" {
			extra = append(extra, "-cpuprofile", o.cpuprofile)
		}
		if o.memprofile != "" {
			extra = append(extra, "-memprofile", o.memprofile)
		}
		if _, err := spawnPass(o, w, seed, false, extra...); err != nil {
			return nil, err
		}
	}
	if o.trace != "0" {
		var extra []string
		if o.traceout != "" {
			extra = []string{"-traceout", o.traceout}
		}
		p, err := spawnPass(o, w, seed, true, extra...)
		if err != nil {
			return nil, err
		}
		r.add(p)
		r.Layers = p.Layers
		r.Layers["bench.trace_overhead_pct"] = 100 * (p.SweepSeconds/r.EndToEnd["decompose_s"] - 1)
	}
	return r, nil
}

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line a run prints.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func driverMain(o options) error {
	if o.trace != "0" && o.trace != "1" && o.trace != "both" {
		return fmt.Errorf("-trace %q: want 0, 1 or both", o.trace)
	}
	if o.runs < 1 || o.passes < 1 {
		return errors.New("-runs and -passes must be at least 1")
	}
	ws, err := selectWorkloads(o)
	if err != nil {
		return err
	}
	rep := newReport(o)
	var lines []resultLine
	for _, w := range ws {
		var runs []*runResult
		for n := 0; n < o.runs; n++ {
			r, err := runWorkload(o, w, o.seed+int64(n))
			if err != nil {
				return err
			}
			runs = append(runs, r)
		}
		wr := summarize(w, runs)
		rep.Workloads = append(rep.Workloads, wr)
		printWorkload(os.Stdout, wr)
		line := resultLine{Correct: wr.Failed == 0, Attempted: wr.Attempted, Failed: wr.Failed, Metrics: map[string]metricValue{}}
		if o.trace != "1" {
			for _, m := range wr.EndToEnd {
				line.Metrics[m.Name] = metricValue{m.Median, m.Unit}
			}
		}
		if o.trace != "0" {
			for _, m := range wr.Layers {
				line.Metrics[m.Name] = metricValue{m.Median, m.Unit}
			}
		}
		lines = append(lines, line)
	}
	if o.out != "" {
		if err := rep.write(o.out); err != nil {
			return err
		}
	}
	// One result line per workload, last: with -workload, the final
	// line of standard output is that workload's result. A failed
	// check is reported there ("correct": false), not by the exit code.
	enc := json.NewEncoder(os.Stdout)
	for _, line := range lines {
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	return nil
}

// hostInfo says where the numbers were taken.
type hostInfo struct {
	NProc  int    `json:"nproc"`
	Go     string `json:"go"`
	Commit string `json:"commit"`
}

func host() hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), Go: runtime.Version(), Commit: "unknown"}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// profiler writes the CPU and allocation profiles of a pass's timed
// phases; set-up, the persist repeats and verification stay out of
// them, so that the profiles rank the pipeline as a user runs it and not
// the benchmark's repetitions or the reference code that checks it.
// Empty paths make it a no-op.
type profiler struct {
	cpu, mem string
	cpuFile  *os.File
}

func (p *profiler) start() error {
	if p.cpu == "" {
		return nil
	}
	f, err := os.Create(p.cpu)
	if err != nil {
		return err
	}
	p.cpuFile = f
	return pprof.StartCPUProfile(f)
}

func (p *profiler) stop() error {
	if p.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := p.cpuFile.Close(); err != nil {
			return err
		}
	}
	if p.mem == "" {
		return nil
	}
	f, err := os.Create(p.mem)
	if err != nil {
		return err
	}
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

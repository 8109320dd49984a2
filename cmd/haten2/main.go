// Command haten2 decomposes a sparse tensor from a coordinate-format
// file using the HaTen2 distributed algorithms on the embedded cluster
// simulator.
//
// Usage:
//
//	haten2 -method parafac -rank 10 -variant DRI -in tensor.coo
//	haten2 -method tucker -core 5x5x5 -variant DRI -in tensor.coo -factors out/
//	haten2 -method parafac -rank 5 -in fourway.coo          # 4-way input works too
//	haten2 -method parafac -rank 10 -in tensor.coo -model m.txt
//	haten2 -method parafac -rank 10 -in tensor.coo -trace run.trace.json -tracesummary
//	haten2 -method parafac -rank 10 -in tensor.coo -backend proc   # multi-process data plane
//
// -backend selects the execution backend: inproc (default) keeps the
// whole run in this process; proc spawns worker processes that serve
// shuffle partitions and staged files over local sockets (DESIGN.md
// §3i). Factor outputs are bit-identical across backends.
//
// -trace writes a Chrome trace_event JSON file of the run in simulated
// time (load it in chrome://tracing or Perfetto); -tracesummary prints
// a per-job-plan summary table. Traces are byte-identical across runs
// and GOMAXPROCS settings (DESIGN.md §3e).
//
// The input format is one entry per line, "i j k [l] value" (0-based),
// with an optional "# tensor I J K [L]" header; order-3 and order-4
// tensors are supported (4-way runs always use the DRI plan). Factor
// matrices are written as TSV when -factors is given; 3-way models can
// be saved with -model and reloaded with haten2.LoadParafac/LoadTucker.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	haten2 "github.com/haten2/haten2"
	"github.com/haten2/haten2/internal/mr"
	"github.com/haten2/haten2/internal/mrproc"
	"github.com/haten2/haten2/internal/obs"
	"github.com/haten2/haten2/internal/tensor"
)

func main() {
	// A copy of this binary spawned by the proc backend is a worker;
	// divert it before flag parsing.
	mrproc.MaybeWorker()
	var (
		in       = flag.String("in", "", "input tensor file (coordinate format); required")
		method   = flag.String("method", "parafac", "decomposition: parafac, tucker, nonnegative")
		rank     = flag.Int("rank", 10, "rank R for parafac/nonnegative")
		coreStr  = flag.String("core", "10x10x10", "core shape PxQxR (or PxQxRxS for 4-way) for tucker")
		variant  = flag.String("variant", "DRI", "job plan: Naive, DNN, DRN, DRI (3-way only; 4-way always uses DRI)")
		machines = flag.Int("machines", 40, "simulated cluster size")
		iters    = flag.Int("iters", 20, "maximum ALS iterations")
		tol      = flag.Float64("tol", 1e-4, "convergence tolerance")
		seed     = flag.Int64("seed", 0, "factor initialization seed")
		factors  = flag.String("factors", "", "directory to write factor matrices (TSV)")
		model    = flag.String("model", "", "file to save the model to (3-way only)")
		trace    = flag.String("trace", "", "write a Chrome trace_event JSON file of the run (simulated time) to this path")
		traceSum = flag.Bool("tracesummary", false, "print the per-job plan summary table after the run")
		backend  = flag.String("backend", "inproc", "execution backend: inproc (the in-process engine) or proc (multi-process socket workers)")
		quiet    = flag.Bool("q", false, "suppress progress output")
	)
	flag.Parse()
	cfg := cliConfig{
		in: *in, method: *method, rank: *rank, coreStr: *coreStr,
		variantStr: *variant, machines: *machines, iters: *iters,
		tol: *tol, seed: *seed, factorsDir: *factors, modelPath: *model,
		tracePath: *trace, traceSummary: *traceSum, quiet: *quiet,
		backend: *backend,
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "haten2:", err)
		os.Exit(1)
	}
}

type cliConfig struct {
	in, method, coreStr, variantStr, factorsDir, modelPath string
	tracePath, backend                                     string
	rank, machines, iters                                  int
	tol                                                    float64
	seed                                                   int64
	traceSummary, quiet                                    bool
}

// newBackend resolves -backend: nil for the in-process engine, a
// running mrproc master (spawned worker processes) for proc. The caller
// installs it on the cluster and closes it after the run.
func (cfg cliConfig) newBackend() (mr.Backend, error) {
	switch cfg.backend {
	case "", "inproc":
		return nil, nil
	case "proc":
		return mrproc.New(mrproc.Options{Workers: 2})
	default:
		return nil, fmt.Errorf("unknown backend %q (want inproc or proc)", cfg.backend)
	}
}

// attachBackend wires the selected backend into the cluster and
// returns the teardown that drains its workers.
func attachBackend(cfg cliConfig, cluster *haten2.Cluster) (func(), error) {
	b, err := cfg.newBackend()
	if err != nil || b == nil {
		return func() {}, err
	}
	cluster.Unwrap().SetBackend(b)
	if !cfg.quiet {
		fmt.Printf("backend: %s\n", b.Name())
	}
	return func() {
		if err := b.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "haten2: backend close:", err)
		}
	}, nil
}

// tracer returns a fresh tracer attached to the cluster when tracing
// was requested, else nil (the engine's nil check keeps the untraced
// path free).
func (cfg cliConfig) tracer(cluster *haten2.Cluster) *obs.Tracer {
	if cfg.tracePath == "" && !cfg.traceSummary {
		return nil
	}
	tr := obs.NewTracer()
	cluster.Unwrap().SetTracer(tr)
	return tr
}

// writeTrace exports what the run traced: a Chrome trace_event file
// for -trace, and the plan-summary table on stdout for -tracesummary.
func writeTrace(cfg cliConfig, tr *obs.Tracer) error {
	if tr == nil {
		return nil
	}
	if cfg.tracePath != "" {
		f, err := os.Create(cfg.tracePath)
		if err != nil {
			return err
		}
		if err := tr.WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		if !cfg.quiet {
			fmt.Printf("trace written to %s\n", cfg.tracePath)
		}
	}
	if cfg.traceSummary {
		if err := tr.WriteSummary(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

func run(cfg cliConfig) error {
	if cfg.in == "" {
		return fmt.Errorf("-in is required")
	}
	f, err := os.Open(cfg.in)
	if err != nil {
		return err
	}
	defer f.Close()
	raw, err := tensor.ReadCOO(f)
	if err != nil {
		return err
	}
	switch raw.Order() {
	case 3:
		return run3(cfg, raw)
	case 4:
		return run4(cfg, raw)
	default:
		return fmt.Errorf("unsupported tensor order %d (want 3 or 4)", raw.Order())
	}
}

func run3(cfg cliConfig, raw *tensor.Tensor) error {
	x := haten2.WrapTensor(raw)
	variant, err := haten2.ParseVariant(cfg.variantStr)
	if err != nil {
		return err
	}
	cluster := haten2.NewCluster(haten2.ClusterConfig{Machines: cfg.machines})
	teardown, err := attachBackend(cfg, cluster)
	if err != nil {
		return err
	}
	defer teardown()
	tr := cfg.tracer(cluster)
	opt := haten2.Options{
		Variant: variant, MaxIters: cfg.iters, Tol: cfg.tol, Seed: cfg.seed, TrackFit: true,
	}
	i, j, k := x.Dims()
	if !cfg.quiet {
		fmt.Printf("tensor %dx%dx%d, %d nonzeros; %s on %d machines (%s plan)\n",
			i, j, k, x.NNZ(), cfg.method, cfg.machines, variant)
	}

	var facs []*haten2.Matrix
	var save func(f *os.File) error
	switch cfg.method {
	case "parafac", "nonnegative":
		runFn := haten2.Parafac
		if cfg.method == "nonnegative" {
			runFn = haten2.NonnegativeParafac
		}
		res, err := runFn(cluster, x, cfg.rank, opt)
		if err != nil {
			return err
		}
		facs = res.Factors[:]
		save = func(f *os.File) error { return res.Save(f) }
		if !cfg.quiet {
			fmt.Printf("done: %d iterations, fit %.4f, λ = %s\n", res.Iters, res.Fit(x), fmtVec(res.Lambda))
		}
	case "tucker":
		core, err := parseCore(cfg.coreStr, 3)
		if err != nil {
			return err
		}
		res, err := haten2.Tucker(cluster, x, [3]int{core[0], core[1], core[2]}, opt)
		if err != nil {
			return err
		}
		facs = res.Factors[:]
		save = func(f *os.File) error { return res.Save(f) }
		if !cfg.quiet {
			fmt.Printf("done: %d iterations, fit %.4f, ‖G‖ %.4f\n", res.Iters, res.Fit(x), res.Core.Norm())
		}
	default:
		return fmt.Errorf("unknown method %q (want parafac, tucker, or nonnegative)", cfg.method)
	}

	if !cfg.quiet {
		st := cluster.Stats()
		fmt.Printf("cluster: %d jobs, %d shuffled records (max %d in one job), simulated time %.1fs\n",
			st.Jobs, st.ShuffleRecords, st.MaxShuffleRecords, st.SimSeconds)
	}
	if err := writeTrace(cfg, tr); err != nil {
		return err
	}
	if cfg.modelPath != "" {
		mf, err := os.Create(cfg.modelPath)
		if err != nil {
			return err
		}
		if err := save(mf); err != nil {
			mf.Close()
			return err
		}
		if err := mf.Close(); err != nil {
			return err
		}
		if !cfg.quiet {
			fmt.Printf("model saved to %s\n", cfg.modelPath)
		}
	}
	return writeFactors(cfg, facs)
}

func run4(cfg cliConfig, raw *tensor.Tensor) error {
	x, err := haten2.WrapTensorN(raw)
	if err != nil {
		return err
	}
	if cfg.modelPath != "" {
		return fmt.Errorf("-model is supported for 3-way tensors only")
	}
	cluster := haten2.NewCluster(haten2.ClusterConfig{Machines: cfg.machines})
	teardown, err := attachBackend(cfg, cluster)
	if err != nil {
		return err
	}
	defer teardown()
	tr := cfg.tracer(cluster)
	opt := haten2.Options{MaxIters: cfg.iters, Tol: cfg.tol, Seed: cfg.seed, TrackFit: true}
	d := x.Dims()
	if !cfg.quiet {
		fmt.Printf("tensor %dx%dx%dx%d, %d nonzeros; 4-way %s on %d machines (DRI plan)\n",
			d[0], d[1], d[2], d[3], x.NNZ(), cfg.method, cfg.machines)
	}
	var facs []*haten2.Matrix
	switch cfg.method {
	case "parafac":
		res, err := haten2.ParafacN(cluster, x, cfg.rank, opt)
		if err != nil {
			return err
		}
		facs = res.Factors
		if !cfg.quiet {
			fmt.Printf("done: %d iterations, fit %.4f, λ = %s\n", res.Iters, res.Fit(x), fmtVec(res.Lambda))
		}
	case "tucker":
		core, err := parseCore(cfg.coreStr, 4)
		if err != nil {
			return err
		}
		res, err := haten2.TuckerN(cluster, x, core, opt)
		if err != nil {
			return err
		}
		facs = res.Factors
		if !cfg.quiet {
			fmt.Printf("done: %d iterations, fit %.4f\n", res.Iters, res.Fit(x))
		}
	default:
		return fmt.Errorf("4-way supports methods parafac and tucker, got %q", cfg.method)
	}
	if !cfg.quiet {
		st := cluster.Stats()
		fmt.Printf("cluster: %d jobs, %d shuffled records, simulated time %.1fs\n",
			st.Jobs, st.ShuffleRecords, st.SimSeconds)
	}
	if err := writeTrace(cfg, tr); err != nil {
		return err
	}
	return writeFactors(cfg, facs)
}

func writeFactors(cfg cliConfig, facs []*haten2.Matrix) error {
	if cfg.factorsDir == "" {
		return nil
	}
	if err := os.MkdirAll(cfg.factorsDir, 0o755); err != nil {
		return err
	}
	names := []string{"A.tsv", "B.tsv", "C.tsv", "D.tsv"}
	for m, fac := range facs {
		if err := writeFactor(filepath.Join(cfg.factorsDir, names[m]), fac); err != nil {
			return err
		}
	}
	if !cfg.quiet {
		fmt.Printf("factors written to %s\n", cfg.factorsDir)
	}
	return nil
}

func parseCore(s string, want int) ([]int, error) {
	parts := strings.Split(strings.ToLower(s), "x")
	if len(parts) != want {
		return nil, fmt.Errorf("core shape must have %d dimensions, got %q", want, s)
	}
	out := make([]int, want)
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad core dimension %q", p)
		}
		out[i] = v
	}
	return out, nil
}

func fmtVec(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.3g", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func writeFactor(path string, m *haten2.Matrix) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.Cols(); j++ {
			if j > 0 {
				if _, err := fmt.Fprint(f, "\t"); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(f, "%g", m.At(i, j)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(f); err != nil {
			return err
		}
	}
	return nil
}

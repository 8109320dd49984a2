// Command haten2bench regenerates the tables and figures of the HaTen2
// paper's evaluation section on the embedded cluster simulator.
//
// Usage:
//
//	haten2bench                  # run everything
//	haten2bench -exp fig1a       # one experiment
//	haten2bench -exp table3,fig8 # a subset
//	haten2bench -full            # larger sweeps
//	haten2bench -json            # machine-readable output
//	haten2bench -exp mr -mrout BENCH_mr.json  # engine wall-clock sweep
//	haten2bench -exp mr -backend=proc        # also sweep the multi-process backend
//	haten2bench -exp faults -faultsout BENCH_faults.json  # fault overhead
//	haten2bench -exp storage -storageout BENCH_storage.json  # DFS durability
//	haten2bench -exp serve -serveout BENCH_serve.json  # factor-serving load
//	haten2bench -exp mr -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Experiment ids: table2 table3 table4 table5 table6 table7 table8
// fig1a fig1b fig1c fig7a fig7b fig7c fig8 nell ablation combiner mr
// faults storage serve.
//
// The mr experiment measures real host wall-clock (not simulated time)
// of the MapReduce engine across a GOMAXPROCS sweep; -mrout additionally
// writes its report to the named JSON file (BENCH_mr.json by
// convention) so the speedup is recorded per machine. With
// -backend=proc the sweep additionally runs through the multi-process
// socket backend (internal/mrproc) — shuffle partitions and staged
// files round-tripping through spawned worker processes — and records
// those rows alongside the in-process ones; job counters must match
// bit-for-bit (DESIGN.md §3i). The faults
// experiment measures the simulated-time overhead of task retries,
// speculative execution, and checkpoint-resume against a fault-free
// baseline, verifying outputs stay bit-identical; -faultsout writes its
// report to the named JSON file (BENCH_faults.json by convention). The
// storage experiment measures the simulated-time overhead of checksum
// failover, read-repair, and checkpoint-restart after data loss under
// seeded corruption/loss plans, verifying factors stay bit-identical;
// -storageout writes its report to the named JSON file
// (BENCH_storage.json by convention). The serve experiment drives a
// Zipf-skewed closed-loop load of simulated users against the
// factor-serving layer (DESIGN.md §3h) across shard counts and cache
// sizes, reporting sustained QPS, p50/p99 latency, cache hit rate, and
// batch occupancy against the naive unsharded scorer, and fails
// outright if any leg's rankings diverge from the single-threaded
// baseline scorer; -serveout writes its report to the named JSON file
// (BENCH_serve.json by convention).
//
// -trace writes one Chrome trace_event JSON file (simulated time,
// DESIGN.md §3e) covering every cluster the selected experiments
// create, and -tracesummary prints the aggregated per-job table after
// they finish.
//
// -cpuprofile writes a pprof CPU profile covering the selected
// experiments, and -memprofile writes a heap profile taken after they
// finish (post-GC, so it shows retained memory — the pools — rather
// than transient garbage). Both feed `go tool pprof`, making perf work
// on the engine measurable without ad-hoc harnesses.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"github.com/haten2/haten2/internal/bench"
	"github.com/haten2/haten2/internal/mrproc"
	"github.com/haten2/haten2/internal/obs"
)

func main() {
	// A copy of this binary spawned by the proc backend is a worker, not
	// a bench run; divert it before flag parsing touches anything.
	mrproc.MaybeWorker()
	var (
		exp        = flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
		full       = flag.Bool("full", false, "run the larger sweeps")
		backend    = flag.String("backend", "inproc", "execution backend for experiments that support one: inproc, or proc to also sweep the multi-process socket engine")
		seed       = flag.Int64("seed", 42, "data generation seed")
		jsonOut    = flag.Bool("json", false, "emit reports as JSON instead of tables")
		mrOut      = flag.String("mrout", "", "also write the mr experiment's report to this JSON file")
		faultsOut  = flag.String("faultsout", "", "also write the faults experiment's report to this JSON file")
		storageOut = flag.String("storageout", "", "also write the storage experiment's report to this JSON file")
		serveOut   = flag.String("serveout", "", "also write the serve experiment's report to this JSON file")
		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the selected experiments to this file")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile (taken after the experiments) to this file")
		trace      = flag.String("trace", "", "write a Chrome trace_event JSON file (simulated time) covering the selected experiments to this path")
		traceSum   = flag.Bool("tracesummary", false, "print the per-job plan summary table after the experiments")
	)
	flag.Parse()
	outs := map[string]string{}
	if *mrOut != "" {
		outs["mr"] = *mrOut
	}
	if *faultsOut != "" {
		outs["faults"] = *faultsOut
	}
	if *storageOut != "" {
		outs["storage"] = *storageOut
	}
	if *serveOut != "" {
		outs["serve"] = *serveOut
	}
	var tr *obs.Tracer
	if *trace != "" || *traceSum {
		tr = obs.NewTracer()
	}
	err := profiled(*cpuProfile, *memProfile, func() error {
		return run(*exp, *full, *seed, *backend, *jsonOut, outs, tr)
	})
	if err == nil {
		err = exportTrace(tr, *trace, *traceSum)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "haten2bench:", err)
		os.Exit(1)
	}
}

// exportTrace writes the harness-wide trace file and/or prints the
// plan-summary table once the selected experiments have run.
func exportTrace(tr *obs.Tracer, path string, summary bool) error {
	if tr == nil {
		return nil
	}
	if path != "" {
		f, err := os.Create(path)
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
	}
	if summary {
		return tr.WriteSummary(os.Stdout)
	}
	return nil
}

// profiled runs fn under the requested pprof profiles. The CPU profile
// covers exactly fn; the heap profile is taken after fn returns, behind
// a forced GC, so it reports retained memory (the engine's pools and
// hints) rather than collectible garbage.
func profiled(cpuProfile, memProfile string, fn func() error) error {
	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("starting CPU profile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if err := fn(); err != nil {
		return err
	}
	if memProfile != "" {
		f, err := os.Create(memProfile)
		if err != nil {
			return err
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("writing heap profile: %w", err)
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// run executes the selected experiments; outs maps an experiment id to
// a file its JSON report is additionally written to, and tr (when
// non-nil) traces every cluster the experiments create.
func run(exp string, full bool, seed int64, backend string, jsonOut bool, outs map[string]string, tr *obs.Tracer) error {
	cfg := bench.Config{Full: full, Seed: seed, Tracer: tr, Backend: backend}
	type runner func(bench.Config) (*bench.Report, error)
	registry := map[string]runner{
		"table2":   func(bench.Config) (*bench.Report, error) { return bench.Table2(), nil },
		"table3":   bench.Table3,
		"table4":   bench.Table4,
		"table5":   func(c bench.Config) (*bench.Report, error) { return bench.Table5(c), nil },
		"table6":   bench.Table6,
		"table7":   bench.Table7,
		"table8":   bench.Table8,
		"fig1a":    bench.Fig1a,
		"fig1b":    bench.Fig1b,
		"fig1c":    bench.Fig1c,
		"fig7a":    bench.Fig7a,
		"fig7b":    bench.Fig7b,
		"fig7c":    bench.Fig7c,
		"fig8":     bench.Fig8,
		"ablation": bench.Ablation,
		"combiner": bench.CombinerAblation,
		"nell":     bench.TableNELL,
		"mr":       bench.MRBench,
		"faults":   bench.Faults,
		"storage":  bench.Storage,
		"serve":    bench.ServeBench,
	}
	order := []string{
		"table2", "table3", "table4", "table5",
		"fig1a", "fig1b", "fig1c", "fig7a", "fig7b", "fig7c", "fig8",
		"table6", "table7", "table8", "nell", "ablation", "combiner",
		"mr", "faults", "storage", "serve",
	}
	var ids []string
	if exp == "all" {
		ids = order
	} else {
		for _, id := range strings.Split(exp, ",") {
			id = strings.TrimSpace(id)
			if _, ok := registry[id]; !ok {
				return fmt.Errorf("unknown experiment %q (known: %s)", id, strings.Join(order, " "))
			}
			ids = append(ids, id)
		}
	}
	for _, id := range ids {
		start := time.Now()
		rep, err := registry[id](cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		if jsonOut {
			b, err := rep.JSON()
			if err != nil {
				return err
			}
			fmt.Println(string(b))
		} else {
			rep.Print(os.Stdout)
			fmt.Printf("(%s regenerated in %.1fs wall time)\n\n", id, time.Since(start).Seconds())
		}
		if out := outs[id]; out != "" {
			b, err := rep.JSON()
			if err != nil {
				return err
			}
			if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
				return fmt.Errorf("writing %s: %w", out, err)
			}
		}
	}
	return nil
}

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
//
// Experiment ids: table2 table3 table4 table5 fig1a fig1b fig1c fig7a
// fig7b fig7c fig8 table6 table7 table8 nell ablation.
//
// Every number is simulated time or a job counter, so the output is a
// pure function of (-seed, -full): byte-identical across runs, hosts and
// GOMAXPROCS. -json cells are typed: numbers for counts, seconds and
// ratios, strings for names, booleans, null for an o.o.m point.
//
// -trace writes one Chrome trace_event JSON file (simulated time,
// DESIGN.md §3e) covering every cluster the selected experiments
// create, and -tracesummary prints the aggregated per-job table after
// they finish.
//
// To profile an experiment use its Benchmark in the root package
// (`go test -run=NONE -bench=Fig1a -cpuprofile cpu.pprof .`); wall-clock
// performance of the pipeline is `go run ./benchmark`.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/haten2/haten2/internal/bench"
	"github.com/haten2/haten2/internal/obs"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
		full     = flag.Bool("full", false, "run the larger sweeps")
		seed     = flag.Int64("seed", 42, "data generation seed")
		jsonOut  = flag.Bool("json", false, "emit reports as JSON instead of tables")
		trace    = flag.String("trace", "", "write a Chrome trace_event JSON file (simulated time) covering the selected experiments to this path")
		traceSum = flag.Bool("tracesummary", false, "print the per-job plan summary table after the experiments")
	)
	flag.Parse()
	var tr *obs.Tracer
	if *trace != "" || *traceSum {
		tr = obs.NewTracer()
	}
	err := run(*exp, bench.Config{Full: *full, Seed: *seed, Tracer: tr}, *jsonOut)
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

type runner func(bench.Config) (*bench.Report, error)

// experiments lists every experiment in paper order.
var experiments = []struct {
	id  string
	run runner
}{
	{"table2", func(bench.Config) (*bench.Report, error) { return bench.Table2(), nil }},
	{"table3", bench.Table3},
	{"table4", bench.Table4},
	{"table5", func(c bench.Config) (*bench.Report, error) { return bench.Table5(c), nil }},
	{"fig1a", bench.Fig1a},
	{"fig1b", bench.Fig1b},
	{"fig1c", bench.Fig1c},
	{"fig7a", bench.Fig7a},
	{"fig7b", bench.Fig7b},
	{"fig7c", bench.Fig7c},
	{"fig8", bench.Fig8},
	{"table6", bench.Table6},
	{"table7", bench.Table7},
	{"table8", bench.Table8},
	{"nell", bench.TableNELL},
	{"ablation", bench.Ablation},
}

// run executes the experiments exp selects ("all", or comma-separated
// ids) under cfg and prints each report as a table or as JSON.
func run(exp string, cfg bench.Config, jsonOut bool) error {
	byID := map[string]runner{}
	var all []string
	for _, e := range experiments {
		byID[e.id] = e.run
		all = append(all, e.id)
	}
	ids := all
	if exp != "all" {
		ids = strings.Split(exp, ",")
		for i, id := range ids {
			ids[i] = strings.TrimSpace(id)
			if byID[ids[i]] == nil {
				return fmt.Errorf("unknown experiment %q (known: %s)", ids[i], strings.Join(all, " "))
			}
		}
	}
	for _, id := range ids {
		rep, err := byID[id](cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		if !jsonOut {
			rep.Print(os.Stdout)
			continue
		}
		b, err := rep.JSON()
		if err != nil {
			return err
		}
		fmt.Println(string(b))
	}
	return nil
}

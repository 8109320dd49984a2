package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// report is the -out file: where the numbers were taken, how, and for
// every workload × metric the values with their median and quartiles.
// Every cell is a number. -compare reads two of these.
type report struct {
	Host      hostInfo         `json:"host"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Passes    int              `json:"passes"`
	Runs      int              `json:"runs"`
	Scale     string           `json:"scale"`
	Workloads []workloadReport `json:"workloads"`
}

type workloadReport struct {
	Name      string   `json:"name"`
	Why       string   `json:"why"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// ModelSHA is the saved model's SHA-256 per run (one per seed).
	ModelSHA []string       `json:"model_sha256"`
	EndToEnd []metricReport `json:"end_to_end,omitempty"`
	Layers   []metricReport `json:"per_layer,omitempty"`
}

// metricReport is one metric on one workload. Values holds one entry
// per run when there were several runs (each the median of its passes),
// else one entry per pass.
type metricReport struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// Per-layer only: the end-to-end metrics this one should move, on
	// which workloads, and where it should leave them flat.
	Moves  string    `json:"moves,omitempty"`
	On     string    `json:"on,omitempty"`
	FlatOn string    `json:"flat_on,omitempty"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

func newReport(o options) *report {
	return &report{Host: host(), Seed: o.seed, Seconds: o.seconds, Passes: o.passes, Runs: o.runs, Scale: o.scale}
}

func (r *report) write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func newMetricReport(def metricDef, values []float64) metricReport {
	m := metricReport{Name: def.Name, Unit: def.Unit, Better: def.Better, Bound: def.Bound,
		Moves: def.Moves, On: def.On, FlatOn: def.FlatOn, Median: median(values), Values: values}
	m.Q1, m.Q3 = quartiles(values)
	return m
}

// summarize folds a workload's runs into its report.
func summarize(w workload, runs []*runResult) workloadReport {
	wr := workloadReport{Name: w.Name, Why: w.Why}
	for _, r := range runs {
		wr.Attempted += r.Attempted
		wr.Failed += r.Failed
		wr.Failures = append(wr.Failures, r.Failures...)
		wr.ModelSHA = append(wr.ModelSHA, r.ModelSHA)
	}
	if len(runs[0].Passes) > 0 {
		for _, def := range endToEnd {
			var values []float64
			if len(runs) > 1 {
				for _, r := range runs {
					values = append(values, r.EndToEnd[def.Name])
				}
			} else {
				for _, p := range runs[0].Passes {
					values = append(values, p.EndToEnd[def.Name])
				}
			}
			wr.EndToEnd = append(wr.EndToEnd, newMetricReport(def, values))
		}
	}
	if runs[0].Layers != nil {
		for _, def := range perLayer {
			var values []float64
			for _, r := range runs {
				values = append(values, r.Layers[def.Name])
			}
			wr.Layers = append(wr.Layers, newMetricReport(def, values))
		}
	}
	return wr
}

// printWorkload prints every metric of a workload by name, with its
// unit, and every failed check.
func printWorkload(out io.Writer, wr workloadReport) {
	fmt.Fprintf(out, "== %s: %d operations attempted, %d failed\n", wr.Name, wr.Attempted, wr.Failed)
	for _, f := range wr.Failures {
		fmt.Fprintf(out, "   FAILED %s\n", f)
	}
	for _, m := range wr.EndToEnd {
		fmt.Fprintf(out, "   %-26s %14.6g %-8s q1 %.6g  q3 %.6g  spread %.1f%%  (n=%d, %s is better, bound %.0f%%)\n",
			m.Name, m.Median, m.Unit, m.Q1, m.Q3, 100*spread(m.Values), len(m.Values), m.Better, 100*m.Bound)
	}
	for _, m := range wr.Layers {
		fmt.Fprintf(out, "   %-26s %14.6g %s\n", m.Name, m.Median, m.Unit)
	}
}

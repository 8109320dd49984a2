// Package bench regenerates every table and figure of the paper's
// evaluation (Section IV) on the simulated cluster: the cost summaries
// (Tables III, IV), the dataset summary (Table V), the data-scalability
// figures (1a–c for Tucker, 7a–c for PARAFAC), machine scalability
// (Figure 8), and the discovery tables on the knowledge-base stand-in
// (Tables VI–VIII). Each experiment returns a Report that prints the
// same rows/series the paper shows.
//
// Every number is simulated: a Report is a pure function of its Config,
// identical across runs, hosts and GOMAXPROCS. Absolute numbers come
// from the simulator's calibrated cost model and therefore do not match
// the paper's testbed; the shapes — which method wins, where each fails,
// how speedup flattens — are the reproduction target (see
// EXPERIMENTS.md).
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"github.com/haten2/haten2/internal/gen"
	"github.com/haten2/haten2/internal/obs"
)

// Report is one regenerated table or figure.
type Report struct {
	// ID is the experiment identifier ("table3", "fig1a", ...).
	ID string `json:"id"`
	// Title describes the experiment as the paper captions it.
	Title string `json:"title"`
	// Headers labels the columns.
	Headers []string `json:"headers"`
	// Rows holds the data as values, not text: int64 for counts,
	// float64 for simulated seconds and ratios, string for names, bool
	// for the feature matrix, and nil for a resource-exhausted point
	// (printed "o.o.m", as the paper's figures do).
	Rows [][]any `json:"rows"`
	// Notes carries observations the harness verified (orderings,
	// crossovers) for EXPERIMENTS.md.
	Notes []string `json:"notes,omitempty"`

	// formats[i] is how Print renders the numbers of column i; columns
	// past its end are plain.
	formats []format
}

// format is how one column's numeric cells become text.
type format int

const (
	plain   format = iota // counts in full; the default, and what text columns use
	seconds               // simulated seconds, adaptive precision, "s" suffix
	fixed2                // %.2f (purity, scale-up)
	sci                   // %.0e (density)
	human                 // gen.Human (10K, 1M)
)

// column is one header with the format of the cells under it.
type column struct {
	header string
	format format
}

// text is a column of names, or of counts printed in full.
func text(header string) column { return column{header, plain} }

func newReport(id, title string, cols ...column) *Report {
	rep := &Report{ID: id, Title: title}
	for _, c := range cols {
		rep.Headers = append(rep.Headers, c.header)
		rep.formats = append(rep.formats, c.format)
	}
	return rep
}

// render is the one place a cell becomes text; strings, and numbers in
// a column whose format does not apply to them, print as they are.
func (f format) render(cell any) string {
	switch v := cell.(type) {
	case nil:
		return "o.o.m"
	case bool:
		if v {
			return "Yes"
		}
		return "No"
	case int64:
		if f == human {
			return gen.Human(v)
		}
	case float64:
		switch f {
		case fixed2:
			return fmt.Sprintf("%.2f", v)
		case sci:
			return fmt.Sprintf("%.0e", v)
		case seconds:
			switch {
			case v < 0.1:
				return fmt.Sprintf("%.3fs", v)
			case v < 10:
				return fmt.Sprintf("%.2fs", v)
			}
			return fmt.Sprintf("%.1fs", v)
		}
	}
	return fmt.Sprint(cell)
}

// Print renders the report as an aligned text table.
func (r *Report) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title)
	lines := [][]string{r.Headers, make([]string, len(r.Headers))}
	for _, row := range r.Rows {
		cells := make([]string, len(row))
		for i, cell := range row {
			var f format
			if i < len(r.formats) {
				f = r.formats[i]
			}
			cells[i] = f.render(cell)
		}
		lines = append(lines, cells)
	}
	widths := make([]int, len(r.Headers))
	for _, cells := range lines {
		for i, c := range cells {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	for i := range lines[1] {
		lines[1][i] = strings.Repeat("-", widths[i])
	}
	for _, cells := range lines {
		parts := make([]string, len(cells))
		for i, c := range cells {
			width := 0
			if i < len(widths) {
				width = widths[i]
			}
			parts[i] = fmt.Sprintf("%-*s", width, c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// JSON renders the report as a machine-readable object (haten2bench
// -json): cells are JSON numbers, strings, booleans, or null for an
// o.o.m point.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Config controls the experiment scale.
type Config struct {
	// Full enlarges the sweeps (minutes instead of seconds).
	Full bool
	// Seed drives all data generation.
	Seed int64
	// Tracer, when non-nil, is attached to every cluster the
	// experiments create, so one trace file covers a whole harness run
	// (haten2bench's -trace flag).
	Tracer *obs.Tracer
}

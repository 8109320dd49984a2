package bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/haten2/haten2/internal/mr"
	"github.com/haten2/haten2/internal/obs"
)

var quick = Config{Seed: 42}

// cell returns the value at (row, col) of rep, failing the test when it
// is not a T: a cell of the wrong type is a broken table, never a zero.
func cell[T any](t *testing.T, rep *Report, row, col int) T {
	t.Helper()
	v, ok := rep.Rows[row][col].(T)
	if !ok {
		t.Fatalf("%s row %d column %q: cell is %T (%v), want %T", rep.ID, row, rep.Headers[col], rep.Rows[row][col], rep.Rows[row][col], v)
	}
	return v
}

// traced is quick with a tracer attached. The goldens were generated
// untraced, so a traced experiment that passes checkGolden has shown
// that tracing changes no cell; jobSpans then shows the tracer reached
// the experiment's clusters.
func traced() (Config, *obs.Tracer) {
	tr := obs.NewTracer()
	return Config{Seed: quick.Seed, Tracer: tr}, tr
}

func jobSpans(t *testing.T, tr *obs.Tracer) {
	t.Helper()
	for _, s := range tr.Spans() {
		if s.Kind == "job" {
			return
		}
	}
	t.Fatal("traced experiment recorded no job span: a cluster was built without the caller's Config")
}

func TestTable2Shape(t *testing.T) {
	rep := Table2()
	checkGolden(t, rep)
	if len(rep.Rows) != 5 {
		t.Fatalf("%d rows", len(rep.Rows))
	}
	// DRI row claims all three ideas.
	dri := rep.Rows[4]
	for col := range dri[1:] {
		if !cell[bool](t, rep, 4, 1+col) {
			t.Fatalf("DRI row %v", dri)
		}
	}
	// Toolbox claims none.
	for col := range rep.Rows[0][1:] {
		if cell[bool](t, rep, 0, 1+col) {
			t.Fatalf("toolbox row %v", rep.Rows[0])
		}
	}
}

// checkCostTable asserts, for every variant of a cost table, that the
// measured job count equals the paper's formula and the measured max
// intermediate data stays within its analytic bound.
func checkCostTable(t *testing.T, rep *Report) {
	t.Helper()
	checkGolden(t, rep)
	for r, row := range rep.Rows {
		if jobs, analytic := cell[int64](t, rep, r, 1), cell[int64](t, rep, r, 2); jobs != analytic {
			t.Fatalf("measured jobs %d != analytic %d for %s", jobs, analytic, row[0])
		}
		if measured, bound := cell[int64](t, rep, r, 3), cell[int64](t, rep, r, 4); measured > bound {
			t.Fatalf("%s exceeded its intermediate-data bound: %d > %d", row[0], measured, bound)
		}
	}
}

func TestTable3JobCountsMatchFormulas(t *testing.T) {
	cfg, tr := traced()
	rep, err := Table3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkCostTable(t, rep)
	jobSpans(t, tr)
}

func TestTable4JobCountsMatchFormulas(t *testing.T) {
	rep, err := Table4(quick)
	if err != nil {
		t.Fatal(err)
	}
	checkCostTable(t, rep)
}

func TestTable5ListsAllDatasets(t *testing.T) {
	rep := Table5(quick)
	checkGolden(t, rep)
	if len(rep.Rows) != 3 {
		t.Fatalf("%d datasets", len(rep.Rows))
	}
	names := cell[string](t, rep, 0, 0) + cell[string](t, rep, 1, 0) + cell[string](t, rep, 2, 0)
	for _, want := range []string{"Freebase", "NELL", "Random"} {
		if !strings.Contains(names, want) {
			t.Fatalf("missing %s in %q", want, names)
		}
	}
}

func TestFig8SpeedupShape(t *testing.T) {
	cfg, tr := traced()
	rep, err := Fig8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, rep)
	jobSpans(t, tr)
	if len(rep.Rows) != 4 {
		t.Fatalf("%d rows", len(rep.Rows))
	}
	var sus []float64
	for r := range rep.Rows {
		sus = append(sus, cell[float64](t, rep, r, 2))
	}
	// Monotone increasing, sublinear, flattening.
	for i := 1; i < len(sus); i++ {
		if sus[i] <= sus[i-1] {
			t.Fatalf("speedup not increasing: %v", sus)
		}
	}
	if sus[3] >= 4.0 {
		t.Fatalf("speedup at 40 machines should be sublinear: %v", sus)
	}
	if (sus[3] - sus[2]) >= (sus[1] - sus[0]) {
		t.Fatalf("speedup should flatten: %v", sus)
	}
}

func TestFig1cDRIWinsAtLargeCore(t *testing.T) {
	rep, err := Fig1c(quick)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, rep)
	found := false
	for _, n := range rep.Notes {
		if strings.Contains(n, "DRI") {
			found = true
		}
	}
	if !found {
		t.Fatalf("DRI should be fastest at the largest core; notes: %v", rep.Notes)
	}
	// DNN/DRN times grow with core size while DRI stays near-flat: the
	// last row's DNN must exceed its first row's.
	const dnn, dri = 2, 4
	last := len(rep.Rows) - 1
	dnnFirst, dnnLast := cell[float64](t, rep, 0, dnn), cell[float64](t, rep, last, dnn)
	if dnnLast <= dnnFirst {
		t.Fatalf("DNN time should grow with core size: %v → %v", dnnFirst, dnnLast)
	}
	driGrowth := cell[float64](t, rep, last, dri) / cell[float64](t, rep, 0, dri)
	dnnGrowth := dnnLast / dnnFirst
	if driGrowth >= dnnGrowth {
		t.Fatalf("DRI (×%.2f) should scale better than DNN (×%.2f)", driGrowth, dnnGrowth)
	}
}

// meanPurity averages a discovery table's purity column.
func meanPurity(t *testing.T, rep *Report) float64 {
	t.Helper()
	var sum float64
	for r := range rep.Rows {
		sum += cell[float64](t, rep, r, 2)
	}
	return sum / float64(len(rep.Rows))
}

func TestTable6RecoversPlantedConcepts(t *testing.T) {
	rep, err := Table6(quick)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, rep)
	if len(rep.Rows) != 6 { // six Freebase-music concepts
		t.Fatalf("rows %d", len(rep.Rows))
	}
	if v := meanPurity(t, rep); v < 0.8 {
		t.Fatalf("mean purity %v too low for planted data", v)
	}
}

func TestTable7And8Consistency(t *testing.T) {
	rep7, err := Table7(quick)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, rep7)
	// 6 concepts × 3 modes of groups.
	if len(rep7.Rows) != 18 {
		t.Fatalf("table7 rows %d", len(rep7.Rows))
	}
	rep8, err := Table8(quick)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, rep8)
	if len(rep8.Rows) != 3 {
		t.Fatalf("table8 rows %d", len(rep8.Rows))
	}
	// Each table8 concept references valid groups.
	for r := range rep8.Rows {
		if g := cell[string](t, rep8, r, 1); !strings.HasPrefix(g, "(S") {
			t.Fatalf("bad group cell %q", g)
		}
	}
}

func TestAblationOrdering(t *testing.T) {
	cfg, tr := traced()
	rep, err := Ablation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, rep)
	jobSpans(t, tr)
	if len(rep.Rows) != 4 {
		t.Fatalf("rows %d", len(rep.Rows))
	}
	// Naive must have exhausted resources on a 1000³ tensor.
	if rep.Rows[0][1] != nil {
		t.Fatalf("naive should o.o.m: %v", rep.Rows[0])
	}
	// DRI runs the fewest jobs.
	if jobs := cell[int64](t, rep, 3, 1); jobs != 2 {
		t.Fatalf("DRI jobs %d", jobs)
	}
}

// Only running out of resources is an o.o.m point; any other failure
// of a measured run must fail the experiment, not print as "o.o.m".
func TestCompletedClassifiesErrors(t *testing.T) {
	if ok, err := completed(nil); !ok || err != nil {
		t.Fatalf("nil: ok=%v err=%v", ok, err)
	}
	wrapped := fmt.Errorf("bench: fig8 at M=10: %w", &mr.ErrResourceExhausted{})
	if ok, err := completed(wrapped); ok || err != nil {
		t.Fatalf("wrapped resource exhaustion should be an o.o.m point: ok=%v err=%v", ok, err)
	}
	other := errors.New("x")
	if ok, err := completed(other); ok || err != other {
		t.Fatalf("an unrelated error must be returned: ok=%v err=%v", ok, err)
	}
}

func TestReportPrint(t *testing.T) {
	rep := newReport("x", "t", text("a"), column{"bb", seconds})
	rep.Rows = [][]any{{int64(1), 0.05}, {int64(333), 2.5}, {"n/a", 612.04}, {true, nil}}
	rep.Notes = []string{"hello"}
	var buf bytes.Buffer
	rep.Print(&buf)
	out := buf.String()
	for _, want := range []string{"== x: t ==", "a    bb", "1    0.050s", "333  2.50s", "n/a  612.0s", "Yes  o.o.m", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in output:\n%s", want, out)
		}
	}
}

func TestFigDataScalabilityOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-minute sweep")
	}
	rep, err := Fig1a(quick)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, rep)
	ok := false
	for _, n := range rep.Notes {
		if strings.Contains(n, "failure ordering matches the paper") {
			ok = true
		}
	}
	if !ok {
		t.Fatalf("ordering note missing: %v", rep.Notes)
	}
}

func TestTableNELLRecoversConcepts(t *testing.T) {
	rep, err := TableNELL(quick)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, rep)
	if len(rep.Rows) != 4 { // four NELL concepts
		t.Fatalf("rows %d", len(rep.Rows))
	}
	if v := meanPurity(t, rep); v < 0.8 {
		t.Fatalf("NELL purity %v", v)
	}
}

func TestReportJSON(t *testing.T) {
	rep := Table2()
	b, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	s := string(b)
	for _, want := range []string{`"id": "table2"`, `"title"`, `"headers"`, `"rows"`, "HaTen2-DRI", "true"} {
		if !strings.Contains(s, want) {
			t.Fatalf("JSON missing %q:\n%s", want, s)
		}
	}

	// Cells cross as values: a seconds cell is a JSON number (not
	// "612.0s"), a count a number, an o.o.m point null.
	rep = newReport("x", "t", text("variant"), text("jobs"), column{"sim time", seconds})
	rep.Rows = [][]any{{"Naive", nil, nil}, {"DRI", int64(2), 612.04}}
	if b, err = rep.JSON(); err != nil {
		t.Fatal(err)
	}
	var got struct{ Rows [][]any }
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	want := [][]any{{"Naive", nil, nil}, {"DRI", 2.0, 612.04}}
	if fmt.Sprintf("%#v", got.Rows) != fmt.Sprintf("%#v", want) {
		t.Fatalf("rows decoded as %#v, want %#v\n%s", got.Rows, want, b)
	}
}

package bench

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

var quick = Config{Seed: 42}

func TestTable2Shape(t *testing.T) {
	rep := Table2()
	checkGolden(t, rep)
	if len(rep.Rows) != 5 {
		t.Fatalf("%d rows", len(rep.Rows))
	}
	// DRI row claims all three ideas.
	dri := rep.Rows[4]
	for _, cell := range dri[1:] {
		if cell != "Yes" {
			t.Fatalf("DRI row %v", dri)
		}
	}
	// Toolbox claims none.
	for _, cell := range rep.Rows[0][1:] {
		if cell != "No" {
			t.Fatalf("toolbox row %v", rep.Rows[0])
		}
	}
}

func TestTable3JobCountsMatchFormulas(t *testing.T) {
	rep, err := Table3(quick)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, rep)
	for _, row := range rep.Rows {
		if row[1] != row[2] {
			t.Fatalf("measured jobs %s != analytic %s for %s", row[1], row[2], row[0])
		}
		measured, _ := strconv.ParseInt(row[3], 10, 64)
		bound, _ := strconv.ParseInt(row[4], 10, 64)
		if measured > bound {
			t.Fatalf("%s exceeded its intermediate-data bound: %d > %d", row[0], measured, bound)
		}
	}
}

func TestTable4JobCountsMatchFormulas(t *testing.T) {
	rep, err := Table4(quick)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, rep)
	for _, row := range rep.Rows {
		if row[1] != row[2] {
			t.Fatalf("measured jobs %s != analytic %s for %s", row[1], row[2], row[0])
		}
	}
}

func TestTable5ListsAllDatasets(t *testing.T) {
	rep := Table5(quick)
	checkGolden(t, rep)
	if len(rep.Rows) != 3 {
		t.Fatalf("%d datasets", len(rep.Rows))
	}
	names := rep.Rows[0][0] + rep.Rows[1][0] + rep.Rows[2][0]
	for _, want := range []string{"Freebase", "NELL", "Random"} {
		if !strings.Contains(names, want) {
			t.Fatalf("missing %s in %q", want, names)
		}
	}
}

func TestFig8SpeedupShape(t *testing.T) {
	rep, err := Fig8(quick)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, rep)
	if len(rep.Rows) != 4 {
		t.Fatalf("%d rows", len(rep.Rows))
	}
	var sus []float64
	for _, row := range rep.Rows {
		su, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		sus = append(sus, su)
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
	parse := func(s string) float64 {
		f, _ := strconv.ParseFloat(strings.TrimSuffix(s, "s"), 64)
		return f
	}
	first, last := rep.Rows[0], rep.Rows[len(rep.Rows)-1]
	if parse(last[2]) <= parse(first[2]) {
		t.Fatalf("DNN time should grow with core size: %v → %v", first[2], last[2])
	}
	driGrowth := parse(last[4]) / parse(first[4])
	dnnGrowth := parse(last[2]) / parse(first[2])
	if driGrowth >= dnnGrowth {
		t.Fatalf("DRI (×%.2f) should scale better than DNN (×%.2f)", driGrowth, dnnGrowth)
	}
}

func TestTable6RecoversPlantedConcepts(t *testing.T) {
	rep, err := Table6(quick)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, rep)
	// Mean purity note must report a high value.
	ok := false
	for _, n := range rep.Notes {
		if strings.HasPrefix(n, "mean top-") {
			fields := strings.Fields(n)
			v, err := strconv.ParseFloat(fields[4], 64)
			if err != nil {
				t.Fatalf("bad purity note %q", n)
			}
			if v < 0.8 {
				t.Fatalf("mean purity %v too low for planted data", v)
			}
			ok = true
		}
	}
	if !ok {
		t.Fatalf("no purity note: %v", rep.Notes)
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
	for _, row := range rep8.Rows {
		if !strings.HasPrefix(row[1], "(S") {
			t.Fatalf("bad group cell %q", row[1])
		}
	}
}

func TestAblationOrdering(t *testing.T) {
	rep, err := Ablation(quick)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, rep)
	if len(rep.Rows) != 4 {
		t.Fatalf("rows %d", len(rep.Rows))
	}
	// Naive must have exhausted resources on a 1000³ tensor.
	if rep.Rows[0][1] != oom {
		t.Fatalf("naive should o.o.m: %v", rep.Rows[0])
	}
	// DRI runs the fewest jobs.
	if rep.Rows[3][1] != "2" {
		t.Fatalf("DRI jobs %v", rep.Rows[3])
	}
}

func TestReportPrint(t *testing.T) {
	rep := &Report{
		ID:      "x",
		Title:   "t",
		Headers: []string{"a", "bb"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
		Notes:   []string{"hello"},
	}
	var buf bytes.Buffer
	rep.Print(&buf)
	out := buf.String()
	for _, want := range []string{"== x: t ==", "a    bb", "333", "note: hello"} {
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

func TestCombinerAblationSavesShuffle(t *testing.T) {
	rep, err := CombinerAblation(quick)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, rep)
	if len(rep.Rows) != 2 {
		t.Fatalf("rows %d", len(rep.Rows))
	}
	without, _ := strconv.ParseInt(rep.Rows[0][1], 10, 64)
	with, _ := strconv.ParseInt(rep.Rows[1][1], 10, 64)
	if with >= without {
		t.Fatalf("combiner should cut shuffle: %d vs %d", with, without)
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
	for _, n := range rep.Notes {
		if strings.HasPrefix(n, "mean top-") {
			v, err := strconv.ParseFloat(strings.Fields(n)[3], 64)
			if err != nil {
				t.Fatalf("bad note %q", n)
			}
			if v < 0.8 {
				t.Fatalf("NELL purity %v", v)
			}
			return
		}
	}
	t.Fatal("no purity note")
}

func TestReportJSON(t *testing.T) {
	rep := Table2()
	b, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	s := string(b)
	for _, want := range []string{`"id": "table2"`, `"headers"`, `"rows"`, "HaTen2-DRI"} {
		if !strings.Contains(s, want) {
			t.Fatalf("JSON missing %q:\n%s", want, s)
		}
	}
}

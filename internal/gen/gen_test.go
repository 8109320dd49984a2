package gen

import (
	"strings"
	"testing"

	"github.com/haten2/haten2/internal/tensor"
)

func TestRandomShapeAndNNZ(t *testing.T) {
	x := Random(1, [3]int64{20, 30, 40}, 100)
	d := x.Dims()
	if d[0] != 20 || d[1] != 30 || d[2] != 40 {
		t.Fatalf("dims %v", d)
	}
	if x.NNZ() != 100 {
		t.Fatalf("nnz %d", x.NNZ())
	}
	for p := 0; p < x.NNZ(); p++ {
		if v := x.Value(p); v < 1 || v >= 2 {
			t.Fatalf("value %v outside [1,2)", v)
		}
	}
}

func TestRandomDeterministic(t *testing.T) {
	a := Random(7, [3]int64{10, 10, 10}, 50)
	b := Random(7, [3]int64{10, 10, 10}, 50)
	if !tensor.Equal(a, b, 0) {
		t.Fatal("same seed produced different tensors")
	}
	c := Random(8, [3]int64{10, 10, 10}, 50)
	if tensor.Equal(a, c, 0) {
		t.Fatal("different seeds produced identical tensors")
	}
}

func TestRandomClampsOversizedNNZ(t *testing.T) {
	x := Random(1, [3]int64{2, 2, 2}, 100)
	if x.NNZ() > 8 {
		t.Fatalf("nnz %d exceeds cell count", x.NNZ())
	}
}

func TestRandomWithDensity(t *testing.T) {
	x := RandomWithDensity(3, 30, 1e-3)
	want := int(1e-3 * 27000)
	if x.NNZ() < want-2 || x.NNZ() > want+2 {
		t.Fatalf("nnz %d, want ≈%d", x.NNZ(), want)
	}
	// Degenerate density still yields at least one entry.
	if RandomWithDensity(3, 5, 0).NNZ() < 1 {
		t.Fatal("zero density produced empty tensor")
	}
}

func TestDescribeAndHuman(t *testing.T) {
	x := Random(1, [3]int64{5, 6, 7}, 10)
	info := Describe("test", x)
	if info.I != 5 || info.J != 6 || info.K != 7 || info.NNZ != 10 {
		t.Fatalf("info %+v", info)
	}
	cases := map[int64]string{
		12:            "12",
		2_300:         "2.3K",
		99_000_000:    "99.0M",
		1_500_000_000: "1.5B",
	}
	for n, want := range cases {
		if got := Human(n); got != want {
			t.Fatalf("Human(%d)=%q want %q", n, got, want)
		}
	}
}

func TestNewKBStructure(t *testing.T) {
	kb := NewKB(KBConfig{Seed: 1, Theme: "music", ConceptNames: FreebaseMusicNames, EntitiesPerConcept: 6, TriplesPerConcept: 50, NoiseTriples: 30})
	if len(kb.Concepts) != len(FreebaseMusicNames) {
		t.Fatalf("%d concepts", len(kb.Concepts))
	}
	if len(kb.Subjects) != 6*len(FreebaseMusicNames) {
		t.Fatalf("%d subjects", len(kb.Subjects))
	}
	if len(kb.Triples) != 50*len(FreebaseMusicNames)+30 {
		t.Fatalf("%d triples", len(kb.Triples))
	}
	// Concept blocks are disjoint.
	seen := map[int64]bool{}
	for _, c := range kb.Concepts {
		for _, s := range c.Subjects {
			if seen[s] {
				t.Fatal("overlapping concept subjects")
			}
			seen[s] = true
		}
	}
	// Labels carry the theme and concept name.
	if !strings.Contains(kb.Subjects[0], "music/classic-album") {
		t.Fatalf("label %q", kb.Subjects[0])
	}
	if !strings.HasPrefix(kb.Predicates[0], "ns:music.") {
		t.Fatalf("predicate label %q", kb.Predicates[0])
	}
}

func TestKBTensorWeights(t *testing.T) {
	kb := NewKB(KBConfig{Seed: 2, TriplesPerConcept: 40})
	x := kb.Tensor()
	if x.Order() != 3 {
		t.Fatal("not 3-way")
	}
	// All weights ≥ 1 (the most frequent predicate gets exactly 1).
	minW, maxW := 1e18, 0.0
	for p := 0; p < x.NNZ(); p++ {
		v := x.Value(p)
		if v < minW {
			minW = v
		}
		if v > maxW {
			maxW = v
		}
	}
	if minW < 1-1e-12 {
		t.Fatalf("min weight %v < 1", minW)
	}
	if maxW <= minW {
		t.Fatal("reweighting had no effect")
	}
}

func TestFilterScarcePredicates(t *testing.T) {
	kb := &KB{
		Subjects:   []string{"s"},
		Objects:    []string{"o"},
		Predicates: []string{"p0", "p1"},
		Triples: []Triple{
			{0, 0, 0}, {0, 0, 0}, // p0 twice
			{0, 0, 1}, // p1 once: dropped
		},
	}
	got := kb.FilterScarcePredicates(1)
	if len(got.Triples) != 2 {
		t.Fatalf("%d triples survive", len(got.Triples))
	}
	for _, tr := range got.Triples {
		if tr.Predicate != 0 {
			t.Fatal("scarce predicate survived")
		}
	}
}

func TestNewIntrusionGroundTruth(t *testing.T) {
	g := NewIntrusion(IntrusionConfig{Seed: 3})
	if g.Tensor.Order() != 3 {
		t.Fatal("not 3-way")
	}
	if len(g.ScanSources) == 0 || len(g.ScanPorts) == 0 {
		t.Fatal("no planted scan")
	}
	// The scan block must exist in the tensor.
	hits := 0
	for _, s := range g.ScanSources {
		for _, tg := range g.ScanTargets {
			for _, p := range g.ScanPorts {
				if g.Tensor.At(s, tg, p) > 0 {
					hits++
				}
			}
		}
	}
	if hits == 0 {
		t.Fatal("planted scan not present in tensor")
	}
	// Labels render.
	if !strings.HasPrefix(g.Label("source", 5), "10.") {
		t.Fatalf("label %q", g.Label("source", 5))
	}
	if !strings.HasPrefix(g.Label("port", 5), "port-") {
		t.Fatalf("label %q", g.Label("port", 5))
	}
}

func TestIntrusionDeterministic(t *testing.T) {
	a := NewIntrusion(IntrusionConfig{Seed: 9})
	b := NewIntrusion(IntrusionConfig{Seed: 9})
	if !tensor.Equal(a.Tensor, b.Tensor, 0) {
		t.Fatal("same seed produced different logs")
	}
}

func TestNewIntrusion4D(t *testing.T) {
	g := NewIntrusion4D(IntrusionConfig{Seed: 4}, 24)
	if g.Tensor.Order() != 4 {
		t.Fatalf("order %d", g.Tensor.Order())
	}
	if g.Tensor.Dim(3) != 24 {
		t.Fatalf("hours dim %d", g.Tensor.Dim(3))
	}
	if g.ScanWindow[1] <= g.ScanWindow[0] {
		t.Fatalf("window %v", g.ScanWindow)
	}
	// Scan traffic exists inside the window for a planted source.
	found := false
	src := g.ScanSources[0]
	for p := 0; p < g.Tensor.NNZ(); p++ {
		idx := g.Tensor.Index(p)
		if idx[0] == src && idx[3] >= g.ScanWindow[0] && idx[3] < g.ScanWindow[1] {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no scan traffic in window")
	}
	// Determinism.
	h := NewIntrusion4D(IntrusionConfig{Seed: 4}, 24)
	if !tensor.Equal(g.Tensor, h.Tensor, 0) {
		t.Fatal("not deterministic")
	}
}

func TestSplitHoldout(t *testing.T) {
	x := Random(11, [3]int64{20, 20, 20}, 500)
	train, idx, vals := SplitHoldout(x, 0.2, 1)
	if len(idx) != len(vals) {
		t.Fatalf("idx/vals length mismatch: %d vs %d", len(idx), len(vals))
	}
	if train.NNZ()+len(idx) != x.NNZ() {
		t.Fatalf("split lost entries: %d + %d != %d", train.NNZ(), len(idx), x.NNZ())
	}
	// Roughly the requested fraction.
	frac := float64(len(idx)) / float64(x.NNZ())
	if frac < 0.1 || frac > 0.3 {
		t.Fatalf("holdout fraction %v", frac)
	}
	// Held-out values match the original tensor, and are absent from train.
	for i, c := range idx {
		if x.At(c[0], c[1], c[2]) != vals[i] {
			t.Fatal("held-out value mismatch")
		}
		if train.At(c[0], c[1], c[2]) != 0 {
			t.Fatal("held-out entry present in train")
		}
	}
	// Deterministic.
	_, idx2, _ := SplitHoldout(x, 0.2, 1)
	if len(idx2) != len(idx) {
		t.Fatal("split not deterministic")
	}
	// Invalid fractions panic.
	for _, f := range []float64{0, 1, -0.1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("fraction %v accepted", f)
				}
			}()
			SplitHoldout(x, f, 1)
		}()
	}
}

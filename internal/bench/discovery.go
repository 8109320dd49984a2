package bench

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"github.com/haten2/haten2/internal/core"
	"github.com/haten2/haten2/internal/gen"
	"github.com/haten2/haten2/internal/matrix"
	"github.com/haten2/haten2/internal/serve"
	"github.com/haten2/haten2/internal/tensor"
)

// discoveryKB builds the Freebase-music stand-in with the paper's §IV-C
// preprocessing applied: scarce-predicate filtering, then TF-IDF-style
// reweighting (inside Tensor()).
func discoveryKB(cfg Config) (*gen.KB, *tensor.Tensor) {
	kb := gen.NewKB(gen.KBConfig{
		Seed:               cfg.Seed + 6,
		Theme:              "music",
		ConceptNames:       gen.FreebaseMusicNames,
		EntitiesPerConcept: 12,
		TriplesPerConcept:  400,
		NoiseTriples:       200,
	})
	kb = kb.FilterScarcePredicates(1)
	return kb, kb.Tensor()
}

// conceptOf maps entity ids to their planted concept index.
func conceptOf(kb *gen.KB, pick func(gen.Concept) []int64) map[int64]int {
	out := map[int64]int{}
	for ci, con := range kb.Concepts {
		for _, id := range pick(con) {
			out[id] = ci
		}
	}
	return out
}

// rowTotals computes per-row absolute sums of a factor matrix — the
// §IV-C normalization before ranking entities.
func rowTotals(m *matrix.Matrix) []float64 {
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		var s float64
		for _, v := range m.Row(i) {
			s += math.Abs(v)
		}
		out[i] = s
	}
	return out
}

// topIdx returns the indexes of the k largest normalized column scores,
// via the serving layer's selection kernel so the discovery tables and
// the server share one ranking (and one tie-break).
func topIdx(m *matrix.Matrix, col int, totals []float64, k int) []int64 {
	top, _ := serve.ColumnTopK(nil, m, col, totals, k, nil)
	out := make([]int64, len(top))
	for i, r := range top {
		out[i] = r.Index
	}
	return out
}

// majorityConcept returns the most common planted concept among ids and
// its share (the purity of the discovered group).
func majorityConcept(ids []int64, concept map[int64]int) (int, float64) {
	counts := map[int]int{}
	for _, id := range ids {
		if c, ok := concept[id]; ok {
			counts[c]++
		}
	}
	best, bestN := -1, 0
	for c, n := range counts {
		if n > bestN || (n == bestN && c < best) {
			best, bestN = c, n
		}
	}
	if len(ids) == 0 {
		return -1, 0
	}
	return best, float64(bestN) / float64(len(ids))
}

func shortNames(labels []string, ids []int64) string {
	parts := make([]string, len(ids))
	for i, id := range ids {
		l := labels[id]
		if cut := strings.LastIndex(l, "/"); cut >= 0 {
			l = l[cut+1:]
		}
		parts[i] = l
	}
	return strings.Join(parts, ", ")
}

// Table6 regenerates Table VI: concept discovery with HaTen2-PARAFAC on
// the Freebase-music stand-in. Because the data is generated from
// planted concepts, the harness also verifies recovery: each component's
// top entities must come predominantly from one planted concept.
func Table6(cfg Config) (*Report, error) {
	kb, x := discoveryKB(cfg)
	rank := len(kb.Concepts)
	c := newBenchCluster(cfg, benchMachines)
	res, err := core.ParafacALS(c, x, rank, core.Options{
		Variant: core.DRI, MaxIters: 40, Seed: cfg.Seed + 61, TrackFit: true, Tol: 1e-7,
	})
	if err != nil {
		return nil, err
	}
	rep := newReport("table6", "Concept discovery with HaTen2-PARAFAC on Freebase-music stand-in (Table VI)",
		text("component"), text("matched concept"), column{"purity", fixed2},
		text("top subjects"), text("top objects"), text("top relations"))
	subjOf := conceptOf(kb, func(c gen.Concept) []int64 { return c.Subjects })
	const k = 3
	sub, obj, rel := res.Model.Factors[0], res.Model.Factors[1], res.Model.Factors[2]
	subT, objT, relT := rowTotals(sub), rowTotals(obj), rowTotals(rel)
	var totalPurity float64
	for r := 0; r < rank; r++ {
		topS := topIdx(sub, r, subT, k)
		topO := topIdx(obj, r, objT, k)
		topR := topIdx(rel, r, relT, k)
		ci, purity := majorityConcept(topS, subjOf)
		name := "?"
		if ci >= 0 {
			name = kb.Concepts[ci].Name
		}
		totalPurity += purity
		rep.Rows = append(rep.Rows, []any{
			fmt.Sprintf("Concept%d", r+1), name, purity,
			shortNames(kb.Subjects, topS), shortNames(kb.Objects, topO), shortNames(kb.Predicates, topR),
		})
	}
	avg := totalPurity / float64(rank)
	rep.Notes = append(rep.Notes, fmt.Sprintf("mean top-%d subject purity %.2f (1.00 = perfect planted-concept recovery)", k, avg))
	if fits := res.Fits; len(fits) > 0 {
		rep.Notes = append(rep.Notes, fmt.Sprintf("final fit %.3f after %d iterations", fits[len(fits)-1], res.Iters))
	}
	return rep, nil
}

// tuckerDiscovery runs the shared Tucker decomposition for Tables VII
// and VIII.
func tuckerDiscovery(cfg Config) (*gen.KB, *core.TuckerResult, error) {
	kb, x := discoveryKB(cfg)
	c := newBenchCluster(cfg, benchMachines)
	dim := len(kb.Concepts)
	res, err := core.TuckerALS(c, x, []int{dim, dim, dim}, core.Options{
		Variant: core.DRI, MaxIters: 25, Seed: cfg.Seed + 71, Tol: 1e-9,
	})
	if err != nil {
		return nil, nil, err
	}
	return kb, res, nil
}

// Table7 regenerates Table VII: the factor groups HaTen2-Tucker finds
// per mode on the Freebase-music stand-in.
func Table7(cfg Config) (*Report, error) {
	kb, res, err := tuckerDiscovery(cfg)
	if err != nil {
		return nil, err
	}
	rep := newReport("table7", "Discovered factor groups with HaTen2-Tucker (Table VII)",
		text("group"), text("top entities"))
	const k = 3
	modes := []struct {
		tag    string
		labels []string
	}{
		{"S", kb.Subjects}, {"O", kb.Objects}, {"R", kb.Predicates},
	}
	for m, md := range modes {
		f := res.Model.Factors[m]
		totals := rowTotals(f)
		for colIdx := 0; colIdx < f.Cols; colIdx++ {
			top := topIdx(f, colIdx, totals, k)
			rep.Rows = append(rep.Rows, []any{
				fmt.Sprintf("%s%d", md.tag, colIdx+1),
				shortNames(md.labels, top),
			})
		}
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf("final ‖G‖ %.3f after %d iterations", res.CoreNorms[len(res.CoreNorms)-1], res.Iters))
	return rep, nil
}

// Table8 regenerates Table VIII: Tucker concepts formed by the largest
// core-tensor entries, each combining a subject, object, and relation
// group — the "possibly overlapping groups" structure the paper
// highlights over PARAFAC's diagonal coupling.
func Table8(cfg Config) (*Report, error) {
	kb, res, err := tuckerDiscovery(cfg)
	if err != nil {
		return nil, err
	}
	g := res.Model.Core
	d := g.Dims()
	type ce struct {
		p, q, r int64
		v       float64
	}
	var cells []ce
	for p := int64(0); p < d[0]; p++ {
		for q := int64(0); q < d[1]; q++ {
			for r := int64(0); r < d[2]; r++ {
				cells = append(cells, ce{p, q, r, math.Abs(g.At(p, q, r))})
			}
		}
	}
	// Equal |g| cells are ordered by coordinate so the table is a
	// deterministic function of the core, like every other top-k path.
	sort.Slice(cells, func(a, b int) bool {
		if cells[a].v != cells[b].v {
			return cells[a].v > cells[b].v
		}
		if cells[a].p != cells[b].p {
			return cells[a].p < cells[b].p
		}
		if cells[a].q != cells[b].q {
			return cells[a].q < cells[b].q
		}
		return cells[a].r < cells[b].r
	})
	rep := newReport("table8", "Tucker concepts from the largest core entries (Table VIII)",
		text("concept"), text("groups"), text("top subjects"), text("top objects"), text("top relations"))
	const k = 3
	sub, obj, rel := res.Model.Factors[0], res.Model.Factors[1], res.Model.Factors[2]
	subT, objT, relT := rowTotals(sub), rowTotals(obj), rowTotals(rel)
	n := 3
	if len(cells) < n {
		n = len(cells)
	}
	for i := 0; i < n; i++ {
		c := cells[i]
		rep.Rows = append(rep.Rows, []any{
			fmt.Sprintf("Concept%d", i+1),
			fmt.Sprintf("(S%d,O%d,R%d) |g|=%.2f", c.p+1, c.q+1, c.r+1, c.v),
			shortNames(kb.Subjects, topIdx(sub, int(c.p), subT, k)),
			shortNames(kb.Objects, topIdx(obj, int(c.q), objT, k)),
			shortNames(kb.Predicates, topIdx(rel, int(c.r), relT, k)),
		})
	}
	return rep, nil
}

// TableNELL runs the concept-discovery pipeline on the NELL stand-in —
// the paper presents these results in its supplementary material
// ("more results on the NELL data is in [8]").
func TableNELL(cfg Config) (*Report, error) {
	kb := gen.NewKB(gen.KBConfig{
		Seed:               cfg.Seed + 9,
		Theme:              "nell",
		ConceptNames:       gen.NELLNames,
		EntitiesPerConcept: 12,
		TriplesPerConcept:  400,
		NoiseTriples:       150,
	}).FilterScarcePredicates(1)
	x := kb.Tensor()
	rank := len(kb.Concepts)
	c := newBenchCluster(cfg, benchMachines)
	res, err := core.ParafacALS(c, x, rank, core.Options{
		Variant: core.DRI, MaxIters: 40, Seed: cfg.Seed + 91, TrackFit: true, Tol: 1e-7,
	})
	if err != nil {
		return nil, err
	}
	rep := newReport("nell", "Concept discovery with HaTen2-PARAFAC on NELL stand-in (supplementary material)",
		text("component"), text("matched concept"), column{"purity", fixed2},
		text("top noun phrases"), text("top contexts"))
	subjOf := conceptOf(kb, func(c gen.Concept) []int64 { return c.Subjects })
	const k = 3
	sub, rel := res.Model.Factors[0], res.Model.Factors[2]
	subT, relT := rowTotals(sub), rowTotals(rel)
	var totalPurity float64
	for r := 0; r < rank; r++ {
		topS := topIdx(sub, r, subT, k)
		topR := topIdx(rel, r, relT, k)
		ci, purity := majorityConcept(topS, subjOf)
		name := "?"
		if ci >= 0 {
			name = kb.Concepts[ci].Name
		}
		totalPurity += purity
		rep.Rows = append(rep.Rows, []any{
			fmt.Sprintf("Concept%d", r+1), name, purity,
			shortNames(kb.Subjects, topS), shortNames(kb.Predicates, topR),
		})
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf("mean top-%d purity %.2f", k, totalPurity/float64(rank)))
	return rep, nil
}

package bench

import (
	"fmt"
	"math/rand"

	"github.com/haten2/haten2/internal/core"
	"github.com/haten2/haten2/internal/gen"
	"github.com/haten2/haten2/internal/matrix"
)

func randFor(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// Table2 regenerates Table II, the feature matrix of all methods.
func Table2() *Report {
	rep := newReport("table2", "Comparison of all methods (Table II)",
		text("Method"), text("Distributed?"), text("Decoupling (D)"), text("Remove deps (R)"), text("Integrate jobs (I)"))
	rep.Rows = append(rep.Rows, []any{"Tensor Toolbox", false, false, false, false})
	for _, v := range core.Variants {
		f := v.Features()
		name := "HaTen2-" + v.String()
		if v == core.DRI {
			name += " (or just HaTen2)"
		}
		rep.Rows = append(rep.Rows, []any{
			name, f.Distributed, f.DecoupledSteps, f.RemovedDependency, f.IntegratedJobs,
		})
	}
	return rep
}

// Table3 regenerates Table III: for one Tucker contraction
// 𝒳×₂Bᵀ×₃Cᵀ, each variant's measured job count and measured max
// intermediate data, against the paper's analytic formulas.
func Table3(cfg Config) (*Report, error) {
	return costTable(cfg, true)
}

// Table4 regenerates Table IV, the PARAFAC counterpart for 𝒳₍₁₎(C⊙B).
func Table4(cfg Config) (*Report, error) {
	return costTable(cfg, false)
}

func costTable(cfg Config, tucker bool) (*Report, error) {
	// Small enough that even Naive's nnz+IJK broadcast fits the cluster
	// cap — the point here is measuring the plans' costs, not killing
	// them (the figures cover failures).
	dims := [3]int64{50, 50, 50}
	nnz := 500
	const q, r = 5, 5
	x := gen.Random(cfg.Seed+3, dims, nnz)
	id, title := "table4", "PARAFAC cost summary for X(1)(C⊙B) (Table IV)"
	if tucker {
		id, title = "table3", "Tucker cost summary for X ×2 Bᵀ ×3 Cᵀ (Table III)"
	}
	rep := newReport(id, title, text("Method"), text("measured jobs"), text("analytic jobs"),
		text("measured max intermediate (records)"), text("analytic bound (records)"))
	for _, v := range core.Variants {
		c := newBenchCluster(cfg, benchMachines)
		s, err := core.Stage(c, "X", x)
		if err != nil {
			return nil, err
		}
		u1 := matrix.Random(int(dims[1]), q, randFor(cfg.Seed+10))
		u2 := matrix.Random(int(dims[2]), r, randFor(cfg.Seed+11))
		if tucker {
			_, err = core.TuckerContract(s, 0, u1, u2, v)
		} else {
			_, err = core.ParafacContract(s, 0, u1, u2, v)
		}
		if err != nil {
			return nil, err
		}
		t := c.Totals()
		var analyticJobs int
		var bound int64
		if tucker {
			analyticJobs = v.TuckerJobs(q, r)
			bound = v.TuckerIntermediate(int64(x.NNZ()), dims[0], dims[1], dims[2], q, r)
		} else {
			analyticJobs = v.ParafacJobs(r)
			bound = v.ParafacIntermediate(int64(x.NNZ()), dims[0], dims[1], dims[2], r)
		}
		rep.Rows = append(rep.Rows, []any{
			"HaTen2-" + v.String(), int64(t.Jobs), int64(analyticJobs), t.MaxShuffleRecords, bound,
		})
		if t.Jobs != analyticJobs {
			rep.Notes = append(rep.Notes,
				fmt.Sprintf("MISMATCH: %s measured %d jobs, formula says %d", v, t.Jobs, analyticJobs))
		}
	}
	if len(rep.Notes) == 0 {
		rep.Notes = append(rep.Notes, "measured job counts equal the paper's formulas for all variants")
	}
	return rep, nil
}

// Table5 regenerates Table V, the dataset summary, for the stand-in
// datasets this reproduction generates.
func Table5(cfg Config) *Report {
	rep := newReport("table5", "Summary of tensor data (Table V; offline stand-ins, scaled)",
		text("dataset"), column{"I", human}, column{"J", human}, column{"K", human}, column{"nnz", human},
		text("paper's original"))
	fb := gen.NewKB(gen.KBConfig{
		Seed: cfg.Seed, Theme: "music", ConceptNames: gen.FreebaseMusicNames,
		EntitiesPerConcept: 40, TriplesPerConcept: 1500, NoiseTriples: 900,
	})
	fbT := fb.Tensor()
	nell := gen.NewKB(gen.KBConfig{
		Seed: cfg.Seed + 1, Theme: "nell", ConceptNames: gen.NELLNames,
		EntitiesPerConcept: 60, TriplesPerConcept: 2500, NoiseTriples: 1200,
	})
	nellT := nell.Tensor()
	rnd := gen.Random(cfg.Seed+2, [3]int64{100000, 100000, 100000}, 1000000)
	for _, e := range []struct {
		info gen.DatasetInfo
		orig string
	}{
		{gen.Describe("Freebase-music (stand-in)", fbT), "23M×23M×0.1K, 99M nnz"},
		{gen.Describe("NELL (stand-in)", nellT), "26M×26M×48M, 144M nnz"},
		{gen.Describe("Random", rnd), "10³–10⁸ dims, 10⁴–10¹⁰ nnz"},
	} {
		rep.Rows = append(rep.Rows, []any{e.info.Name, e.info.I, e.info.J, e.info.K, e.info.NNZ, e.orig})
	}
	return rep
}

package core

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/haten2/haten2/internal/gen"
	"github.com/haten2/haten2/internal/matrix"
	"github.com/haten2/haten2/internal/mr"
	"github.com/haten2/haten2/internal/obs"
	"github.com/haten2/haten2/internal/tensor"
)

// driverRun is one ALS entry point reduced to what the option contract
// is about: a digest of the result's bits, and its Iters and Fits.
type driverRun func(c *mr.Cluster, opt Options) (digest string, iters int, fits []float64, err error)

// TestOptionContract holds every driver entry point to the same option
// contract: run → iter → mode spans are emitted, TrackFit fills Fits,
// a run resumed from its Checkpoint is bit-identical to an uninterrupted
// one, and WarmStart is honoured or refused by name — never ignored.
func TestOptionContract(t *testing.T) {
	x3 := gen.Random(31, [3]int64{7, 6, 5}, 90)
	x4 := random4Way(rand.New(rand.NewSource(32)), [4]int64{5, 4, 4, 3}, 80)
	parafac := func(res *ParafacResult, err error) (string, int, []float64, error) {
		if err != nil {
			return "", 0, nil, err
		}
		return factorDigest(res.Model.Lambda, res.Model.Factors), res.Iters, res.Fits, nil
	}
	tucker := func(x *tensor.Tensor, core []int) driverRun {
		return func(c *mr.Cluster, opt Options) (string, int, []float64, error) {
			res, err := TuckerALS(c, x, core, opt)
			if err != nil {
				return "", 0, nil, err
			}
			return factorDigest(res.Model.Core.Data, res.Model.Factors), res.Iters, res.Fits, nil
		}
	}
	warmFor := func(x *tensor.Tensor) *tensor.Kruskal {
		rng := rand.New(rand.NewSource(33))
		k := &tensor.Kruskal{Lambda: []float64{1, 1}}
		for m := 0; m < x.Order(); m++ {
			k.Factors = append(k.Factors, matrix.Random(int(x.Dim(m)), 2, rng))
		}
		return k
	}
	drivers := []struct {
		name string
		warm *tensor.Kruskal // a model to warm-start from, nil where WarmStart does not apply
		run  driverRun
	}{
		{"parafac3", warmFor(x3), func(c *mr.Cluster, opt Options) (string, int, []float64, error) {
			return parafac(ParafacALS(c, x3, 2, opt))
		}},
		{"parafac4", warmFor(x4), func(c *mr.Cluster, opt Options) (string, int, []float64, error) {
			return parafac(ParafacALS(c, x4, 2, opt))
		}},
		{"tucker3", nil, tucker(x3, []int{2, 2, 2})},
		{"tucker4", nil, tucker(x4, []int{2, 2, 2, 2})},
		{"nonnegative", nil, func(c *mr.Cluster, opt Options) (string, int, []float64, error) {
			return parafac(NonnegativeParafac(c, x3, 2, opt))
		}},
		{"masked", warmFor(x3), func(c *mr.Cluster, opt Options) (string, int, []float64, error) {
			return parafac(MaskedParafacALS(c, x3, [][3]int64{{0, 1, 2}, {6, 5, 4}}, 2, opt))
		}},
	}
	for _, d := range drivers {
		t.Run(d.name, func(t *testing.T) {
			opt := Options{Variant: DRI, MaxIters: 4, Tol: 1e-12, Seed: 3, TrackFit: true}

			c := testCluster()
			tr := obs.NewTracer()
			c.SetTracer(tr)
			want, iters, fits, err := d.run(c, opt)
			if err != nil {
				t.Fatal(err)
			}
			if iters != 4 || len(fits) != iters {
				t.Fatalf("ran %d iterations with %d fits, want 4 and 4", iters, len(fits))
			}
			// Every mode span sits in an iter span, every iter span in the
			// one run span.
			kinds := map[int]string{}
			count := map[string]int{}
			for _, s := range tr.Spans() {
				kinds[s.ID] = s.Kind
				count[s.Kind]++
				if up := map[string]string{"mode": "iter", "iter": "run"}[s.Kind]; up != "" && kinds[s.Parent] != up {
					t.Fatalf("%s span %q is inside a %q span, want %q", s.Kind, s.Name, kinds[s.Parent], up)
				}
			}
			if count["run"] != 1 || count["iter"] != iters || count["mode"]%iters != 0 || count["mode"] == 0 {
				t.Fatalf("span counts %v for %d iterations", count, iters)
			}

			// Stop after two iterations, then resume on a new cluster over
			// the same DFS.
			opt.Checkpoint = "ck/" + d.name
			opt.MaxIters = 2
			c1 := testCluster()
			if _, iters, _, err := d.run(c1, opt); err != nil || iters != 2 {
				t.Fatalf("first leg: %d iterations, %v", iters, err)
			}
			opt.MaxIters = 4
			c2 := mr.NewClusterWithFS(mr.Config{Machines: 4, SlotsPerMachine: 2}, c1.FS())
			got, iters, fits, err := d.run(c2, opt)
			if err != nil {
				t.Fatal(err)
			}
			if got != want || iters != 4 || len(fits) != 4 {
				t.Fatalf("resumed run differs: digest %s vs %s, %d iterations, %d fits", got, want, iters, len(fits))
			}
			if jobs, full := c2.Totals().Jobs, c.Totals().Jobs; jobs >= full {
				t.Fatalf("resumed leg ran %d jobs, a full run %d: it did not resume", jobs, full)
			}

			// WarmStart changes the result, or is refused by name.
			opt = Options{Variant: DRI, MaxIters: 4, Tol: 1e-12, Seed: 3, TrackFit: true, WarmStart: d.warm}
			if d.warm == nil {
				opt.WarmStart = warmFor(x3)
			}
			got, _, _, err = d.run(testCluster(), opt)
			switch {
			case d.warm != nil && (err != nil || got == want):
				t.Fatalf("WarmStart not honoured: err %v, same result %v", err, got == want)
			case d.warm == nil && (err == nil || !strings.Contains(err.Error(), "WarmStart")):
				t.Fatalf("WarmStart neither honoured nor refused by name: %v", err)
			}
		})
	}
}

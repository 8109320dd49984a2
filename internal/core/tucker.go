package core

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/haten2/haten2/internal/matrix"
	"github.com/haten2/haten2/internal/mr"
	"github.com/haten2/haten2/internal/tensor"
)

// TuckerResult is the outcome of a Tucker-ALS run.
type TuckerResult struct {
	// Model holds the core tensor and orthonormal factor matrices.
	Model *tensor.TuckerModel
	// Iters is the number of completed outer iterations.
	Iters int
	// CoreNorms holds ‖𝒢‖_F after each iteration — the quantity whose
	// stagnation is Algorithm 2's stopping criterion.
	CoreNorms []float64
	// Fits holds per-iteration fits when Options.TrackFit is set.
	Fits []float64
	// Converged reports whether ‖𝒢‖ stagnated before MaxIters.
	Converged bool
}

// TuckerALS runs the Tucker-ALS of Algorithm 2 on a tensor of order 3
// or 4, with the bottleneck 𝒳 ×ₘ A⁽ᵐ⁾ᵀ chain over the other modes
// computed on the cluster by the selected HaTen2 plan. core gives the
// desired core tensor shape, one entry per mode; the factor update
// (core[n] leading left singular vectors of Y₍ₙ₎) runs locally because
// Y₍ₙ₎ is an Iₙ×Π core[m] matrix with a tiny second dimension.
func TuckerALS(c *mr.Cluster, x *tensor.Tensor, core []int, opt Options) (*TuckerResult, error) {
	order := x.Order()
	if len(core) != order {
		return nil, fmt.Errorf("core: TuckerALS wants %d core dims, got %d", order, len(core))
	}
	for m, p := range core {
		if p <= 0 {
			return nil, fmt.Errorf("core: core dimension %d is %d, must be positive", m, p)
		}
		if int64(p) > x.Dim(m) {
			return nil, fmt.Errorf("core: core dimension %d (%d) exceeds tensor dim %d", m, p, x.Dim(m))
		}
	}
	// lastY is the final mode's contraction 𝒴 = 𝒳 ×₁A⁽¹⁾ᵀ … ×_{N-1}A⁽ᴺ⁻¹⁾ᵀ,
	// which the epilogue turns into the core.
	var lastY []YEntry
	st, err := runALS(c, x, opt, &rule{
		name: "tucker",
		op:   crossMerge,
		cols: core,
		// All factors start as random orthonormal frames (Algorithm 2
		// initializes B and C; mode 0 is overwritten by the first update).
		initFactor: func(rows, cols int, rng *rand.Rand) *matrix.Matrix {
			q, _ := matrix.QR(matrix.Random(rows, cols, rng))
			return q
		},
		update: func(st *alsState, n int, others []*matrix.Matrix, ys []YEntry, _ *rand.Rand) {
			// A⁽ⁿ⁾ ← leading core[n] left singular vectors of Y₍ₙ₎, whose
			// columns are the multiplied modes' columns flattened (the
			// layout does not affect the left singular vectors).
			last := others[len(others)-1].Cols
			cols := last
			for _, o := range others[:len(others)-1] {
				cols *= o.Cols
			}
			ym := matrix.New(st.factors[n].Rows, cols)
			for _, y := range ys {
				ym.Set(int(y.I), int(y.Q)*last+int(y.R), y.Val)
			}
			st.factors[n] = matrix.LeadingLeftSingularVectors(ym, core[n])
			if n == order-1 {
				lastY = ys
			}
		},
		finish: func(st *alsState, x *tensor.Tensor, it int, opt Options) bool {
			// 𝒢 ← 𝒴 ×_N A⁽ᴺ⁾ᵀ (Algorithm 2 line 9): contract the last
			// mode of 𝒴 against the freshly updated last factor.
			coreDims := make([]int64, order)
			for m, p := range core {
				coreDims[m] = int64(p)
			}
			g := tensor.NewDense(coreDims...)
			af := st.factors[order-1]
			coords := make([]int64, order)
			for _, y := range lastY {
				// Unflatten Q into the leading modes' core coordinates.
				q := int64(y.Q)
				for m := order - 3; m >= 0; m-- {
					coords[m], q = q%coreDims[m], q/coreDims[m]
				}
				coords[order-2] = int64(y.R)
				for r := 0; r < core[order-1]; r++ {
					cv := af.At(int(y.I), r)
					if cv == 0 {
						continue
					}
					coords[order-1] = int64(r)
					g.Add(y.Val*cv, coords...)
				}
			}
			norm := g.Norm()
			st.core = g
			st.coreNorms = append(st.coreNorms, norm)
			if opt.TrackFit {
				st.fits = append(st.fits, (&tensor.TuckerModel{Core: g, Factors: st.factors}).Fit(x))
			}
			// Stop when ‖𝒢‖ ceases to increase (Algorithm 2 line 10).
			if it > 0 && norm-st.prev < opt.Tol*math.Max(1, st.prev) {
				return true
			}
			st.prev = norm
			return false
		},
	})
	if err != nil {
		return nil, err
	}
	return &TuckerResult{
		Model:     &tensor.TuckerModel{Core: st.core, Factors: st.factors},
		Iters:     st.iters,
		CoreNorms: st.coreNorms,
		Fits:      st.fits,
		Converged: st.converged,
	}, nil
}

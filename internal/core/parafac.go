package core

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/haten2/haten2/internal/matrix"
	"github.com/haten2/haten2/internal/mr"
	"github.com/haten2/haten2/internal/tensor"
)

// ParafacResult is the outcome of a PARAFAC-ALS run.
type ParafacResult struct {
	// Model holds λ and the unit-column factor matrices.
	Model *tensor.Kruskal
	// Iters is the number of completed outer iterations.
	Iters int
	// Fits holds the fit after each iteration when Options.TrackFit is
	// set (fit = 1 − ‖𝒳−𝒳̂‖_F/‖𝒳‖_F).
	Fits []float64
	// Converged reports whether the Tol criterion stopped the run
	// before MaxIters.
	Converged bool
}

// ParafacALS runs the PARAFAC-ALS of Algorithm 1 on a tensor of order 3
// or 4, with the bottleneck 𝒳₍ₙ₎(⊙ other factors) computed on the
// cluster by the selected HaTen2 plan.
func ParafacALS(c *mr.Cluster, x *tensor.Tensor, rank int, opt Options) (*ParafacResult, error) {
	r := parafacRule("parafac", x.Order(), rank)
	r.warmStart = true
	return r.parafac(c, x, rank, opt)
}

// parafacRule is plain PARAFAC-ALS: the least-squares mode update
// A⁽ⁿ⁾ ← 𝒴 (∗ₘ A⁽ᵐ⁾ᵀA⁽ᵐ⁾)† with columns renormalized into λ, and the
// fit-or-λ stopping rule. The extensions start from it and replace what
// they change.
func parafacRule(name string, order, rank int) *rule {
	r := &rule{
		name:       name,
		op:         pairwiseMerge,
		cols:       make([]int, order),
		initFactor: matrix.Random,
		model: func(st *alsState) *tensor.Kruskal {
			return &tensor.Kruskal{Lambda: append([]float64(nil), st.lambda...), Factors: st.factors}
		},
		update: func(st *alsState, n int, others []*matrix.Matrix, ys []YEntry, rng *rand.Rand) {
			// The Gram matrices are R×R, so the update runs locally.
			y := kruskalProduct(ys, st.factors[n].Rows, rank)
			a := matrix.Mul(y, matrix.PseudoInverse(gramProduct(others)))
			for r, nv := range a.NormalizeColumns() {
				if nv == 0 {
					// A dead component: reinitialize its column so ALS can
					// recover rather than propagate zeros.
					for i := 0; i < a.Rows; i++ {
						a.Set(i, r, rng.Float64())
					}
					a.NormalizeColumns()
					nv = 1
				}
				st.lambda[r] = nv
			}
			st.factors[n] = a
		},
	}
	for m := range r.cols {
		r.cols[m] = rank
	}
	// The epilogue sees the state through r.model (read at call time, so
	// a rule that replaces the model is judged on its own): record the
	// fit when tracked and stop when it improves by less than Tol — or,
	// when fit tracking is off, when the component weights stabilize.
	r.finish = func(st *alsState, x *tensor.Tensor, it int, opt Options) bool {
		m := r.model(st)
		copy(st.lambda, m.Lambda)
		if !opt.TrackFit {
			if it == 0 {
				return false
			}
			maxRel := 0.0
			for i, l := range st.lambda {
				maxRel = math.Max(maxRel, math.Abs(l-st.prevLambda[i])/math.Max(1, math.Abs(l)))
			}
			return maxRel < opt.Tol
		}
		fit := m.Fit(x)
		st.fits = append(st.fits, fit)
		// Stop only on a small *improvement*; transient decreases keep
		// the loop running.
		if d := fit - st.prev; d >= 0 && d < opt.Tol {
			return true
		}
		st.prev = fit
		return false
	}
	return r
}

// gramProduct is ∗ₘ A⁽ᵐ⁾ᵀA⁽ᵐ⁾ over the given factors.
func gramProduct(factors []*matrix.Matrix) *matrix.Matrix {
	g := matrix.Gram(factors[0])
	for _, f := range factors[1:] {
		g = matrix.Hadamard(g, matrix.Gram(f))
	}
	return g
}

// parafac runs the loop under r and reports the final state as a model.
func (r *rule) parafac(c *mr.Cluster, x *tensor.Tensor, rank int, opt Options) (*ParafacResult, error) {
	if rank <= 0 {
		return nil, fmt.Errorf("core: rank must be positive, got %d", rank)
	}
	st, err := runALS(c, x, opt, r)
	if err != nil {
		return nil, err
	}
	return &ParafacResult{Model: r.model(st), Iters: st.iters, Fits: st.fits, Converged: st.converged}, nil
}

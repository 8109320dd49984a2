package core

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/haten2/haten2/internal/matrix"
	"github.com/haten2/haten2/internal/mr"
	"github.com/haten2/haten2/internal/tensor"
)

// Options configures an ALS decomposition run. Every driver honours
// every option, or returns an error naming the one it cannot (WarmStart
// is a PARAFAC model, so only PARAFAC and masked PARAFAC accept it).
// The execution backend is not an option: install it on the cluster
// (mr.Cluster.SetBackend) before calling a driver.
type Options struct {
	// Variant selects the job plan; the recommended method is DRI
	// ("just HaTen2"). The zero value is Naive — callers almost always
	// want to set this. Naive and DNN are 3-way plans; order-4 tensors
	// need DRN or DRI.
	Variant Variant
	// MaxIters bounds the outer ALS iterations (paper notation T).
	// Zero means 20.
	MaxIters int
	// Tol is the convergence threshold: PARAFAC stops when the fit
	// improves by less than Tol, Tucker when ‖𝒢‖ increases by less than
	// Tol relatively (Algorithm 2 line 10). Zero means 1e-4.
	Tol float64
	// Seed makes the random factor initialization reproducible.
	Seed int64
	// TrackFit records the model fit after every iteration in the
	// result. It costs one pass over the nonzeros per iteration and is
	// required for fit-based early stopping in PARAFAC (without it,
	// PARAFAC stops on component-weight stabilization instead).
	TrackFit bool
	// WarmStart, when non-nil, resumes iteration from a previous
	// PARAFAC model instead of a random initialization — the pattern
	// for continuing a long decomposition in a later session. The
	// model's rank must match.
	WarmStart *tensor.Kruskal
	// Checkpoint, when non-empty, is a DFS base path under which the
	// driver persists its complete iteration state after every outer
	// iteration (atomic commit, older checkpoints pruned), and from
	// which a fresh run resumes if a checkpoint exists. A run killed
	// mid-iteration — e.g. by a FaultPlan's KillAfterJobs — can be
	// restarted on a new cluster sharing the same FS
	// (mr.NewClusterWithFS) and converges to the bit-identical result.
	Checkpoint string
}

func (o Options) withDefaults() Options {
	if o.MaxIters <= 0 {
		o.MaxIters = 20
	}
	if o.Tol <= 0 {
		o.Tol = 1e-4
	}
	return o
}

// alsState is the complete state of an ALS run at an iteration
// boundary: what the loop carries from one iteration to the next, what
// a checkpoint persists, and what the drivers build their results from.
type alsState struct {
	// method names the update rule that produced the state, so a
	// checkpoint is never resumed by a different decomposition.
	method  string
	factors []*matrix.Matrix
	// lambda and prevLambda are the component weights after this
	// iteration and the one before (the PARAFAC family).
	lambda, prevLambda []float64
	// core and coreNorms are 𝒢 and ‖𝒢‖_F per iteration (Tucker).
	core      *tensor.Dense
	coreNorms []float64
	// prev is what the convergence test compares against: the last fit
	// (PARAFAC family) or the last ‖𝒢‖ (Tucker); -Inf before the first
	// iteration.
	prev      float64
	fits      []float64
	iters     int
	converged bool
}

// clone deep-copies the state: the live loop mutates factors and lambda
// in place on the very next iteration.
func (st *alsState) clone() *alsState {
	cp := *st
	cp.factors = make([]*matrix.Matrix, len(st.factors))
	for m, f := range st.factors {
		cp.factors[m] = f.Clone()
	}
	cp.lambda = append([]float64(nil), st.lambda...)
	cp.prevLambda = append([]float64(nil), st.prevLambda...)
	cp.coreNorms = append([]float64(nil), st.coreNorms...)
	cp.fits = append([]float64(nil), st.fits...)
	if st.core != nil {
		cp.core = tensor.NewDense(st.core.Dims()...)
		copy(cp.core.Data, st.core.Data)
	}
	return &cp
}

// rule is everything that genuinely differs between the decompositions
// the ALS loop serves; runALS owns the rest.
type rule struct {
	// name identifies the decomposition: in the staged tensor's DFS
	// name, the run span ("parafac-als/DRI") and its checkpoints.
	name string
	// op is the merge operator of the bottleneck contraction.
	op mergeOp
	// cols is the column count of each mode's factor: the rank repeated,
	// or the Tucker core shape.
	cols []int
	// initFactor draws one mode's initial factor.
	initFactor func(rows, cols int, rng *rand.Rand) *matrix.Matrix
	// warmStart reports whether Options.WarmStart applies.
	warmStart bool
	// update is the mode-update rule: it replaces (or rescales) factor n
	// from ys, the contraction of the tensor with the other modes'
	// factors. rng is the iteration's own stream.
	update func(st *alsState, n int, others []*matrix.Matrix, ys []YEntry, rng *rand.Rand)
	// finish is the per-iteration epilogue: it derives what the result
	// reports (Tucker's core and norm, fits when tracked against x) and
	// decides convergence.
	finish func(st *alsState, x *tensor.Tensor, it int, opt Options) bool
	// model is the PARAFAC family's view of the state as a Kruskal model
	// (nil for Tucker).
	model func(st *alsState) *tensor.Kruskal
	// restage, when non-nil, returns the tensor the next iteration runs
	// against (masked PARAFAC's E-step completes it with the model).
	restage func(st *alsState) *tensor.Tensor
}

// runALS is the one alternating-least-squares loop. It stages x, owns
// the run → iter → mode spans, checkpoint resume and commit, the
// per-iteration random stream and the iteration bookkeeping, and calls
// the rule for the mode update and the epilogue. The input tensor is
// staged to the cluster's DFS once; factor matrices live in driver
// memory (they are I×R with small R) and are staged per job, exactly as
// the Hadoop implementation keeps them on HDFS between jobs.
func runALS(c *mr.Cluster, x *tensor.Tensor, opt Options, r *rule) (*alsState, error) {
	opt = opt.withDefaults()
	if opt.WarmStart != nil && !r.warmStart {
		return nil, fmt.Errorf("core: %s-als does not support Options.WarmStart", r.name)
	}
	if err := admit(x, opt.Variant, r.cols); err != nil {
		return nil, err
	}
	s, err := Stage(c, tmpName(c, r.name, "X"), x)
	if err != nil {
		return nil, err
	}
	defer func() { s.retire() }()
	tr := c.Tracer()
	defer tr.End(tr.Begin("run", r.name+"-als/"+opt.Variant.String()))

	order := len(s.Dims)
	st := &alsState{method: r.name, factors: make([]*matrix.Matrix, order), prev: math.Inf(-1)}
	if r.op == pairwiseMerge {
		st.lambda = make([]float64, r.cols[0])
		st.prevLambda = make([]float64, r.cols[0])
	}
	if ws := opt.WarmStart; ws != nil {
		if ws.Rank() != r.cols[0] || len(ws.Factors) != order {
			return nil, fmt.Errorf("core: warm start has rank %d / %d factors, want rank %d / %d", ws.Rank(), len(ws.Factors), r.cols[0], order)
		}
		for m, f := range ws.Factors {
			if int64(f.Rows) != s.Dims[m] {
				return nil, fmt.Errorf("core: warm-start factor %d has %d rows, tensor mode has %d", m, f.Rows, s.Dims[m])
			}
			st.factors[m] = f.Clone()
		}
		copy(st.lambda, ws.Lambda)
		// Fold λ into the first factor so the sweep's renormalization
		// starts from the same model.
		st.factors[0].ScaleColumns(st.lambda)
	} else {
		rng := rand.New(rand.NewSource(opt.Seed))
		for m := range st.factors {
			st.factors[m] = r.initFactor(int(s.Dims[m]), r.cols[m], rng)
		}
		for i := range st.lambda {
			st.lambda[i] = 1
		}
	}
	if opt.Checkpoint != "" {
		ck, err := loadCheckpoint(c, opt.Checkpoint, r.name)
		if err != nil {
			return nil, err
		}
		if ck != nil {
			ok := len(ck.factors) == order
			for m := 0; ok && m < order; m++ {
				ok = ck.factors[m].Cols == r.cols[m] && int64(ck.factors[m].Rows) == s.Dims[m]
			}
			if !ok {
				return nil, fmt.Errorf("core: checkpoint %q does not match factor shapes %v by %v", opt.Checkpoint, s.Dims, r.cols)
			}
			if st = ck; st.converged {
				return st, nil
			}
		}
	}
	for it := st.iters; it < opt.MaxIters; it++ {
		iterSpan := tr.Begin("iter", fmt.Sprintf("iter%02d", it))
		if r.restage != nil && it > 0 {
			s.cleanup([]string{s.Name})
			s.reuse()
			next, err := Stage(c, tmpName(c, r.name, "X"), r.restage(st))
			if err != nil {
				return nil, err
			}
			s = next
		}
		copy(st.prevLambda, st.lambda)
		// Randomness inside the sweep (dead-component reinit) is keyed
		// to (Seed, it) so a checkpoint-resumed run draws identically.
		rng := rand.New(rand.NewSource(iterSeed(opt.Seed, it)))
		for n := 0; n < order; n++ {
			modeSpan := tr.Begin("mode", fmt.Sprintf("mode%d", n))
			var rest []*matrix.Matrix
			for _, m := range others(order, n) {
				rest = append(rest, st.factors[m])
			}
			ys, err := s.contract(n, rest, opt.Variant, r.op)
			if err != nil {
				return nil, err
			}
			r.update(st, n, rest, ys, rng)
			if opt.Variant.Features().RemovedDependency {
				// The merge job's output, lent by the engine's pools, is
				// spent like the contraction's temporaries.
				mr.Disown(ys)
				s.spent = append(s.spent, ys)
			}
			tr.End(modeSpan)
		}
		st.iters = it + 1
		st.converged = r.finish(st, x, it, opt)
		if opt.Checkpoint != "" {
			if err := saveCheckpoint(c, opt.Checkpoint, st); err != nil {
				return nil, err
			}
		}
		tr.End(iterSpan)
		if st.converged {
			break
		}
	}
	return st, nil
}

// admit refuses, before anything is staged, an input no iteration could
// decompose: a plan that does not run at the tensor's order, a tensor
// with no nonzero entry once coalesced, or a factor (dims[m] × cols[m]
// float64s) beyond the 2⁴⁸ bytes 64-bit Go allocates at most at once.
func admit(x *tensor.Tensor, v Variant, cols []int) error {
	if err := planRuns(v, x.Order()); err != nil {
		return err
	}
	x.Coalesce()
	if x.NNZ() == 0 {
		return &ErrEmptyTensor{Dims: x.Dims()}
	}
	for m, q := range cols {
		if rows := x.Dim(m); rows > (1<<48)/8/int64(q) {
			return &ErrFactorTooLarge{Mode: m, Rows: rows, Cols: q}
		}
	}
	return nil
}

// ErrEmptyTensor is the error every decomposition returns, before any
// job runs, for a tensor with no nonzero entry once duplicates are
// summed: every model fits it, so none is reported.
type ErrEmptyTensor struct{ Dims []int64 }

func (e *ErrEmptyTensor) Error() string {
	return fmt.Sprintf("core: the %v tensor has no nonzero entry to decompose", e.Dims)
}

// ErrFactorTooLarge is the error every decomposition returns, before
// any job runs, when mode Mode's factor, Rows × Cols float64s, is larger
// than any allocation can be.
type ErrFactorTooLarge struct {
	Mode, Cols int
	Rows       int64
}

func (e *ErrFactorTooLarge) Error() string {
	return fmt.Sprintf("core: mode %d's factor would be %d×%d, beyond any allocation", e.Mode, e.Rows, e.Cols)
}

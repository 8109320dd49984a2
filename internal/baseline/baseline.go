// Package baseline implements the single-machine comparator the paper
// benchmarks HaTen2 against: the MATLAB Tensor Toolbox running MET
// (Memory-Efficient Tucker) and sparse MTTKRP-based PARAFAC-ALS.
//
// The decompositions run in memory (no cluster), which makes them fast
// on small tensors, but every step charges its working set against an
// explicit memory budget; when the peak exceeds the budget the run fails
// with ErrOutOfMemory — the "o.o.m" markers of Figures 1 and 7. A
// calibrated single-machine cost model produces modeled seconds
// comparable with the cluster simulator's, so the harness can plot both
// families on one axis.
package baseline

import (
	"fmt"
	"math/rand"

	"github.com/haten2/haten2/internal/matrix"
	"github.com/haten2/haten2/internal/tensor"
)

// ErrOutOfMemory reports that a step's working set exceeded the
// configured memory budget.
type ErrOutOfMemory struct {
	Step   string
	Needed int64
	Budget int64
}

func (e *ErrOutOfMemory) Error() string {
	return fmt.Sprintf("baseline: out of memory in %s: needs %d bytes, budget %d", e.Step, e.Needed, e.Budget)
}

// Config describes the simulated single machine.
type Config struct {
	// MemoryBudget is the usable RAM in bytes. Zero means 32 GiB, the
	// paper's per-machine RAM.
	MemoryBudget int64
	// SecondsPerOp is the modeled cost of one scalar multiply-add in the
	// sparse kernels. Zero means 5e-9 (vectorized MATLAB on the paper's
	// 3.3 GHz Xeon).
	SecondsPerOp float64
}

func (c Config) withDefaults() Config {
	if c.MemoryBudget <= 0 {
		c.MemoryBudget = 32 << 30
	}
	if c.SecondsPerOp <= 0 {
		c.SecondsPerOp = 5e-9
	}
	return c
}

// Toolbox is a simulated single-machine tensor package.
type Toolbox struct {
	cfg Config
}

// New returns a Toolbox with the given configuration.
func New(cfg Config) *Toolbox {
	return &Toolbox{cfg: cfg.withDefaults()}
}

// Options mirrors the iteration controls of the distributed drivers.
type Options struct {
	MaxIters int
	Tol      float64
	Seed     int64
	TrackFit bool
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

// ParafacResult is the outcome of a single-machine PARAFAC run.
type ParafacResult struct {
	Model          *tensor.Kruskal
	Iters          int
	Fits           []float64
	ModeledSeconds float64
	PeakBytes      int64
}

// TuckerResult is the outcome of a single-machine Tucker run.
type TuckerResult struct {
	Model          *tensor.TuckerModel
	Iters          int
	CoreNorms      []float64
	ModeledSeconds float64
	PeakBytes      int64
}

// charge tracks modeled time and peak memory, failing when the budget is
// exceeded.
type charge struct {
	cfg     Config
	seconds float64
	peak    int64
}

func (c *charge) ops(n int64) { c.seconds += float64(n) * c.cfg.SecondsPerOp }

func (c *charge) mem(step string, bytes int64) error {
	if bytes > c.peak {
		c.peak = bytes
	}
	if bytes > c.cfg.MemoryBudget {
		return &ErrOutOfMemory{Step: step, Needed: bytes, Budget: c.cfg.MemoryBudget}
	}
	return nil
}

// baseFootprint is the resident cost of the tensor and factors.
func baseFootprint(x *tensor.Tensor, cols []int) int64 {
	// COO storage: order×8 bytes of indices + 8 of value per nonzero.
	b := int64(x.NNZ()) * int64(x.Order()*8+8)
	for m, c := range cols {
		b += x.Dim(m) * int64(c) * 8
	}
	return b
}

// ParafacALS runs in-memory PARAFAC-ALS (Algorithm 1) with sparse
// MTTKRP, the Tensor Toolbox's approach [26].
func (tb *Toolbox) ParafacALS(x *tensor.Tensor, rank int, opt Options) (*ParafacResult, error) {
	if x.Order() != 3 {
		return nil, fmt.Errorf("baseline: ParafacALS requires a 3-way tensor")
	}
	if rank <= 0 {
		return nil, fmt.Errorf("baseline: rank must be positive")
	}
	opt = opt.withDefaults()
	ch := &charge{cfg: tb.cfg}
	cols := []int{rank, rank, rank}
	if err := ch.mem("load", baseFootprint(x, cols)); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	factors := make([]*matrix.Matrix, 3)
	for m := 0; m < 3; m++ {
		factors[m] = matrix.Random(int(x.Dim(m)), rank, rng)
	}
	lambda := make([]float64, rank)
	res := &ParafacResult{}
	prevFit := -1.0
	for it := 0; it < opt.MaxIters; it++ {
		for n := 0; n < 3; n++ {
			// MTTKRP working set: the result matrix plus the resident
			// footprint.
			need := baseFootprint(x, cols) + x.Dim(n)*int64(rank)*8
			if err := ch.mem("mttkrp", need); err != nil {
				return nil, err
			}
			m := tensor.MTTKRP(x, factors, n)
			ch.ops(int64(x.NNZ()) * int64(rank) * 3)
			m1, m2 := other(n)
			gram := matrix.Hadamard(matrix.Gram(factors[m1]), matrix.Gram(factors[m2]))
			ch.ops(int64(factors[m1].Rows+factors[m2].Rows) * int64(rank*rank))
			a := matrix.Mul(m, matrix.PseudoInverse(gram))
			ch.ops(x.Dim(n) * int64(rank*rank))
			norms := a.NormalizeColumns()
			for r, nv := range norms {
				if nv == 0 {
					for i := 0; i < a.Rows; i++ {
						a.Set(i, r, rng.Float64())
					}
					a.NormalizeColumns()
					nv = 1
				}
				lambda[r] = nv
			}
			factors[n] = a
		}
		res.Iters = it + 1
		if opt.TrackFit {
			model := &tensor.Kruskal{Lambda: lambda, Factors: factors}
			fit := model.Fit(x)
			ch.ops(int64(x.NNZ()) * int64(rank))
			res.Fits = append(res.Fits, fit)
			if d := fit - prevFit; d >= 0 && d < opt.Tol {
				break
			}
			prevFit = fit
		}
	}
	res.Model = &tensor.Kruskal{Lambda: lambda, Factors: factors}
	res.ModeledSeconds = ch.seconds
	res.PeakBytes = ch.peak
	return res, nil
}

// TuckerALS runs in-memory Tucker-ALS (Algorithm 2) in the style of MET
// [20]: n-mode products are computed sparsely, but the intermediate
// 𝒯 = 𝒳 ×ₐ Uᵀ (≈ nnz·Q nonzeros by Lemma 3) and the matricized 𝒴 must
// both fit in memory — the constraint that makes the Toolbox the first
// method to fall over as tensors grow.
func (tb *Toolbox) TuckerALS(x *tensor.Tensor, core [3]int, opt Options) (*TuckerResult, error) {
	if x.Order() != 3 {
		return nil, fmt.Errorf("baseline: TuckerALS requires a 3-way tensor")
	}
	for m, p := range core {
		if p <= 0 || int64(p) > x.Dim(m) {
			return nil, fmt.Errorf("baseline: invalid core dimension %d for mode %d", p, m)
		}
	}
	opt = opt.withDefaults()
	ch := &charge{cfg: tb.cfg}
	cols := core[:]
	if err := ch.mem("load", baseFootprint(x, cols)); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	factors := make([]*matrix.Matrix, 3)
	for m := 0; m < 3; m++ {
		q, _ := matrix.QR(matrix.Random(int(x.Dim(m)), core[m], rng))
		factors[m] = q
	}
	res := &TuckerResult{}
	prevNorm := 0.0
	var lastY *tensor.Tensor
	for it := 0; it < opt.MaxIters; it++ {
		for n := 0; n < 3; n++ {
			m1, m2 := other(n)
			// Memory: first TTM intermediate ≈ nnz·Q entries of 4
			// coordinates, second ≈ I_n·Q1·Q2 dense, plus residents.
			inter := int64(x.NNZ()) * int64(core[m1]) * 32
			dense := x.Dim(n) * int64(core[m1]*core[m2]) * 8
			full := baseFootprint(x, cols) + inter + dense
			if err := ch.mem("ttm", full); err != nil {
				return nil, err
			}
			t1 := tensor.ModeMatrixProduct(x, m1, factors[m1].T())
			ch.ops(int64(x.NNZ()) * int64(core[m1]))
			y := tensor.ModeMatrixProduct(t1, m2, factors[m2].T())
			ch.ops(int64(t1.NNZ()) * int64(core[m2]))
			ym := tensor.Matricize(y, n)
			factors[n] = matrix.LeadingLeftSingularVectors(ym, core[n])
			ch.ops(int64(ym.Rows) * int64(ym.Cols) * int64(ym.Cols))
			if n == 2 {
				lastY = y
			}
		}
		// 𝒢 ← 𝒴 ×₃ Cᵀ from the final mode's intermediate.
		g := tensor.NewDense(int64(core[0]), int64(core[1]), int64(core[2]))
		cf := factors[2]
		for p := 0; p < lastY.NNZ(); p++ {
			idx := lastY.Index(p)
			v := lastY.Value(p)
			for r := 0; r < core[2]; r++ {
				cv := cf.At(int(idx[2]), r)
				if cv != 0 {
					g.Add(v*cv, idx[0], idx[1], int64(r))
				}
			}
		}
		ch.ops(int64(lastY.NNZ()) * int64(core[2]))
		norm := g.Norm()
		res.CoreNorms = append(res.CoreNorms, norm)
		res.Iters = it + 1
		res.Model = &tensor.TuckerModel{Core: g, Factors: append([]*matrix.Matrix(nil), factors...)}
		if it > 0 && norm-prevNorm < opt.Tol*max1(prevNorm) {
			break
		}
		prevNorm = norm
	}
	res.ModeledSeconds = ch.seconds
	res.PeakBytes = ch.peak
	return res, nil
}

func other(n int) (int, int) {
	switch n {
	case 0:
		return 1, 2
	case 1:
		return 0, 2
	default:
		return 0, 1
	}
}

func max1(v float64) float64 {
	if v < 1 {
		return 1
	}
	return v
}

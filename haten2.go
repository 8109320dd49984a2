// Package haten2 is a Go implementation of HaTen2 (Jeon, Papalexakis,
// Kang, Faloutsos: "HaTen2: Billion-scale Tensor Decompositions",
// ICDE 2015): scalable Tucker and PARAFAC tensor decomposition as
// MapReduce job plans that minimize intermediate data, disk accesses,
// and job count.
//
// The package runs the paper's exact map/reduce algorithms on an
// embedded, deterministic cluster simulator with full cost accounting
// (shuffled records and bytes, DFS traffic, job counts, and a calibrated
// simulated running time), so both the decompositions themselves and the
// paper's scalability experiments are reproducible on a single machine.
//
// # Quick start
//
//	x := haten2.NewTensor(1000, 1000, 1000)
//	x.Append(1.0, 3, 141, 59)
//	// ... add more entries, then:
//	cluster := haten2.NewCluster(haten2.ClusterConfig{Machines: 40})
//	res, err := haten2.Parafac(cluster, x, 10, haten2.Options{Variant: haten2.DRI})
//
// Four job plans are available (Table II of the paper): Naive, DNN, DRN,
// and DRI. DRI — the paper's "just HaTen2" — is the recommended method.
package haten2

import (
	"fmt"
	"io"

	"github.com/haten2/haten2/internal/core"
	"github.com/haten2/haten2/internal/gen"
	"github.com/haten2/haten2/internal/matrix"
	"github.com/haten2/haten2/internal/mr"
	"github.com/haten2/haten2/internal/tensor"
)

// Variant selects the HaTen2 job plan (Table II).
type Variant int

// The four job plans, in increasing refinement order.
const (
	// Naive runs one broadcast-style job per n-mode vector product.
	Naive Variant = iota
	// DNN decouples products into Hadamard-and-Merge steps.
	DNN
	// DRN removes inter-product dependencies via CrossMerge and
	// PairwiseMerge.
	DRN
	// DRI integrates all Hadamard products into one IMHP job; a whole
	// contraction takes two jobs. This is the recommended method.
	DRI
)

// String returns the paper's name for the variant.
func (v Variant) String() string { return core.Variant(v).String() }

// ParseVariant converts "Naive", "DNN", "DRN", or "DRI" to a Variant.
func ParseVariant(s string) (Variant, error) {
	cv, err := core.ParseVariant(s)
	return Variant(cv), err
}

// Tensor is a sparse 3-way tensor in coordinate format.
type Tensor struct {
	t *tensor.Tensor
}

// NewTensor returns an empty I×J×K sparse tensor.
func NewTensor(i, j, k int64) *Tensor {
	return &Tensor{t: tensor.New(i, j, k)}
}

// Append adds a nonzero entry; duplicate coordinates are summed on the
// next Coalesce (decompositions coalesce automatically).
func (x *Tensor) Append(v float64, i, j, k int64) { x.t.Append(v, i, j, k) }

// Coalesce sorts entries, sums duplicates, and drops zeros.
func (x *Tensor) Coalesce() { x.t.Coalesce() }

// NNZ returns the number of stored entries.
func (x *Tensor) NNZ() int { return x.t.NNZ() }

// Dims returns the mode sizes (I, J, K).
func (x *Tensor) Dims() (int64, int64, int64) {
	d := x.t.Dims()
	return d[0], d[1], d[2]
}

// At returns the value at (i, j, k), or 0 if absent. The tensor must be
// coalesced first.
func (x *Tensor) At(i, j, k int64) float64 { return x.t.At(i, j, k) }

// Norm returns the Frobenius norm.
func (x *Tensor) Norm() float64 { return x.t.Norm() }

// Entries calls fn for every stored entry in storage order, stopping
// early if fn returns false.
func (x *Tensor) Entries(fn func(i, j, k int64, v float64) bool) {
	for p := 0; p < x.t.NNZ(); p++ {
		idx := x.t.Index(p)
		if !fn(idx[0], idx[1], idx[2], x.t.Value(p)) {
			return
		}
	}
}

// Write writes the tensor in the plain-text coordinate format
// ("# tensor I J K" header, then "i j k value" lines).
func (x *Tensor) Write(w io.Writer) error { return tensor.WriteCOO(w, x.t) }

// ReadTensor parses the format produced by Write. Inputs without a
// shape header get their shape inferred from the largest indices. The
// input must be 3-way.
func ReadTensor(r io.Reader) (*Tensor, error) {
	t, err := tensor.ReadCOO(r)
	if err != nil {
		return nil, err
	}
	if t.Order() != 3 {
		return nil, fmt.Errorf("haten2: want a 3-way tensor, got order %d", t.Order())
	}
	return &Tensor{t: t}, nil
}

// WrapTensor adopts an internal tensor; it is used by the experiment
// harness and the examples' generators.
func WrapTensor(t *tensor.Tensor) *Tensor { return &Tensor{t: t} }

// Unwrap exposes the internal representation to sibling packages.
func (x *Tensor) Unwrap() *tensor.Tensor { return x.t }

// Matrix is a read-only view of a factor matrix.
type Matrix struct {
	m *matrix.Matrix
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.m.Rows }

// Cols returns the number of columns (components).
func (m *Matrix) Cols() int { return m.m.Cols }

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.m.At(i, j) }

// Col returns a copy of column j.
func (m *Matrix) Col(j int) []float64 { return m.m.Col(j) }

// Unwrap exposes the internal representation to sibling packages (the
// serving layer builds its shard views over it).
func (m *Matrix) Unwrap() *matrix.Matrix { return m.m }

// RowTotals returns the per-row sums of absolute values across columns,
// the normalizer the paper's discovery pipeline uses before ranking
// entities within a component.
func (m *Matrix) RowTotals() []float64 {
	out := make([]float64, m.m.Rows)
	for i := 0; i < m.m.Rows; i++ {
		var s float64
		for _, v := range m.m.Row(i) {
			if v < 0 {
				s -= v
			} else {
				s += v
			}
		}
		out[i] = s
	}
	return out
}

// ClusterConfig describes the simulated Hadoop cluster.
type ClusterConfig struct {
	// Machines is the cluster size (the paper uses 10–40). Zero means 1.
	Machines int
	// SlotsPerMachine is the concurrent task count per machine
	// (default 4, the paper's quad-core nodes).
	SlotsPerMachine int
	// MaxShuffleRecords caps any single job's shuffle; a job exceeding
	// it fails like an out-of-memory Hadoop job. Zero means unlimited.
	MaxShuffleRecords int64
}

// Cluster is a simulated MapReduce cluster with cost accounting.
type Cluster struct {
	c *mr.Cluster
}

// NewCluster creates a cluster.
func NewCluster(cfg ClusterConfig) *Cluster {
	return &Cluster{c: mr.NewCluster(mr.Config{
		Machines:          cfg.Machines,
		SlotsPerMachine:   cfg.SlotsPerMachine,
		MaxShuffleRecords: cfg.MaxShuffleRecords,
	})}
}

// Stats summarizes everything the cluster has executed.
type Stats struct {
	// Jobs is the number of MapReduce jobs run.
	Jobs int
	// ShuffleRecords and ShuffleBytes total the intermediate data moved
	// through all shuffles.
	ShuffleRecords, ShuffleBytes int64
	// MaxShuffleRecords is the largest single-job shuffle — the paper's
	// "max intermediate data".
	MaxShuffleRecords int64
	// SimSeconds is the modeled cluster running time.
	SimSeconds float64
}

// Stats returns a snapshot of the cluster counters.
func (c *Cluster) Stats() Stats {
	t := c.c.Totals()
	return Stats{
		Jobs:              t.Jobs,
		ShuffleRecords:    t.ShuffleRecords,
		ShuffleBytes:      t.ShuffleBytes,
		MaxShuffleRecords: t.MaxShuffleRecords,
		SimSeconds:        t.SimSeconds,
	}
}

// ResetStats zeroes the counters (staged data is kept).
func (c *Cluster) ResetStats() { c.c.ResetCounters() }

// Unwrap exposes the internal cluster to sibling packages.
func (c *Cluster) Unwrap() *mr.Cluster { return c.c }

// Options configures a decomposition run.
type Options struct {
	// Variant selects the job plan; DRI is recommended. (The zero value
	// is Naive, matching the paper's presentation order.)
	Variant Variant
	// MaxIters bounds ALS iterations; zero means 20.
	MaxIters int
	// Tol is the convergence threshold; zero means 1e-4.
	Tol float64
	// Seed makes factor initialization reproducible.
	Seed int64
	// TrackFit records per-iteration fit (needed for early stopping in
	// PARAFAC; costs one pass over the nonzeros per iteration). A fit is
	// computed from ‖𝒳−𝒳̂‖² = ‖𝒳‖² − 2⟨𝒳,𝒳̂⟩ + ‖𝒳̂‖², which cancels near a
	// perfect fit, so fits closer to 1 than about 10⁻⁷ are not resolved.
	TrackFit bool
}

func (o Options) internal() core.Options {
	return core.Options{
		Variant:  core.Variant(o.Variant),
		MaxIters: o.MaxIters,
		Tol:      o.Tol,
		Seed:     o.Seed,
		TrackFit: o.TrackFit,
	}
}

// ParafacResult is a rank-R PARAFAC decomposition
// 𝒳 ≈ Σ_r λ_r a_r∘b_r∘c_r.
type ParafacResult struct {
	// Lambda holds the component weights.
	Lambda []float64
	// Factors holds the three unit-column factor matrices (I×R, J×R,
	// K×R).
	Factors [3]*Matrix
	// Iters is the number of ALS iterations run.
	Iters int
	// Fits holds per-iteration fits when Options.TrackFit was set.
	Fits []float64
	// Converged reports early stopping.
	Converged bool

	model *tensor.Kruskal
}

// Fit returns 1 − ‖𝒳−𝒳̂‖_F/‖𝒳‖_F for the given tensor.
func (r *ParafacResult) Fit(x *Tensor) float64 { return r.model.Fit(x.t) }

// Predict evaluates the model at one coordinate.
func (r *ParafacResult) Predict(i, j, k int64) float64 { return r.model.At(i, j, k) }

func wrapParafac(res *core.ParafacResult) *ParafacResult {
	return &ParafacResult{
		Lambda: res.Model.Lambda,
		Factors: [3]*Matrix{
			{m: res.Model.Factors[0]},
			{m: res.Model.Factors[1]},
			{m: res.Model.Factors[2]},
		},
		Iters:     res.Iters,
		Fits:      res.Fits,
		Converged: res.Converged,
		model:     res.Model,
	}
}

// Parafac runs the distributed PARAFAC-ALS of Algorithm 1 on the
// cluster.
func Parafac(c *Cluster, x *Tensor, rank int, opt Options) (*ParafacResult, error) {
	res, err := core.ParafacALS(c.c, x.t, rank, opt.internal())
	if err != nil {
		return nil, err
	}
	return wrapParafac(res), nil
}

// NonnegativeParafac runs the multiplicative-update nonnegative PARAFAC
// (the paper's stated future work) with the bottleneck products computed
// on the cluster.
func NonnegativeParafac(c *Cluster, x *Tensor, rank int, opt Options) (*ParafacResult, error) {
	res, err := core.NonnegativeParafac(c.c, x.t, rank, opt.internal())
	if err != nil {
		return nil, err
	}
	return wrapParafac(res), nil
}

// ErrNonFinite is the error every decomposition returns, before any job
// runs, for a tensor holding a NaN or ±Inf value, or duplicate entries
// whose sum overflows: Index and Value are the first such entry's.
type ErrNonFinite = core.ErrNonFinite

// ErrEmptyTensor is the error every decomposition returns, before any
// job runs, for a tensor with no nonzero entry once duplicate entries
// are summed.
type ErrEmptyTensor = core.ErrEmptyTensor

// ErrFactorTooLarge is the error every decomposition returns, before any
// job runs, when one mode's factor matrix is larger than any allocation
// can be (a hostile or mistaken shape header, say).
type ErrFactorTooLarge = core.ErrFactorTooLarge

// ErrOrder is the error a decomposition returns, before any job runs,
// when Options.Variant names a plan that does not run at the tensor's
// order: Naive and DNN are 3-way plans.
type ErrOrder = core.ErrOrder

// ErrNegativeInput is the error NonnegativeParafac returns, before any
// job runs, for a tensor with a negative value once duplicate entries
// are summed: Index and Value are the first such entry's.
type ErrNegativeInput = core.ErrNegativeInput

// ErrMaskedInput is the error MaskedParafac returns for an input it
// rejects before staging anything: a missing coordinate outside the
// tensor's dims (Pos indexes it) or a tensor that is not 3-way (Pos -1).
type ErrMaskedInput = core.ErrMaskedInput

// MaskedParafac decomposes x treating the listed coordinates as missing
// (EM imputation; the paper's other stated future work). Each missing
// coordinate is a (i, j, k) triple inside x's dims.
func MaskedParafac(c *Cluster, x *Tensor, missing [][3]int64, rank int, opt Options) (*ParafacResult, error) {
	res, err := core.MaskedParafacALS(c.c, x.t, missing, rank, opt.internal())
	if err != nil {
		return nil, err
	}
	return wrapParafac(res), nil
}

// CoreTensor is the dense P×Q×R core of a Tucker decomposition.
type CoreTensor struct {
	g *tensor.Dense
}

// Dims returns (P, Q, R).
func (g *CoreTensor) Dims() (int64, int64, int64) {
	d := g.g.Dims()
	return d[0], d[1], d[2]
}

// At returns 𝒢(p, q, r).
func (g *CoreTensor) At(p, q, r int64) float64 { return g.g.At(p, q, r) }

// Norm returns ‖𝒢‖_F.
func (g *CoreTensor) Norm() float64 { return g.g.Norm() }

// Unwrap exposes the internal representation to sibling packages.
func (g *CoreTensor) Unwrap() *tensor.Dense { return g.g }

// TuckerResult is a Tucker decomposition 𝒳 ≈ 𝒢 ×₁A ×₂B ×₃C with
// orthonormal factors.
type TuckerResult struct {
	// Core is the dense core tensor.
	Core *CoreTensor
	// Factors holds the three orthonormal factor matrices.
	Factors [3]*Matrix
	// Iters is the number of ALS iterations run.
	Iters int
	// CoreNorms tracks ‖𝒢‖_F per iteration (the stopping criterion).
	CoreNorms []float64
	// Fits holds per-iteration fits when Options.TrackFit was set.
	Fits []float64
	// Converged reports early stopping.
	Converged bool

	model *tensor.TuckerModel
}

// Fit returns 1 − ‖𝒳−𝒳̂‖_F/‖𝒳‖_F for the given tensor.
func (r *TuckerResult) Fit(x *Tensor) float64 { return r.model.Fit(x.t) }

// Predict evaluates the model at one coordinate.
func (r *TuckerResult) Predict(i, j, k int64) float64 { return r.model.At(i, j, k) }

// Tucker runs the distributed Tucker-ALS of Algorithm 2 on the cluster
// with the desired core shape.
func Tucker(c *Cluster, x *Tensor, core3 [3]int, opt Options) (*TuckerResult, error) {
	res, err := core.TuckerALS(c.c, x.t, core3[:], opt.internal())
	if err != nil {
		return nil, err
	}
	return &TuckerResult{
		Core: &CoreTensor{g: res.Model.Core},
		Factors: [3]*Matrix{
			{m: res.Model.Factors[0]},
			{m: res.Model.Factors[1]},
			{m: res.Model.Factors[2]},
		},
		Iters:     res.Iters,
		CoreNorms: res.CoreNorms,
		Fits:      res.Fits,
		Converged: res.Converged,
		model:     res.Model,
	}, nil
}

// SplitHoldout partitions a tensor's entries into a training tensor and
// a held-out set (coordinates plus true values), the input shape
// MaskedParafac expects for completion and cross-validation. frac is
// the held-out fraction in (0, 1); the split is seeded.
func SplitHoldout(x *Tensor, frac float64, seed int64) (train *Tensor, held [][3]int64, values []float64) {
	t, held, values := gen.SplitHoldout(x.t, frac, seed)
	return &Tensor{t: t}, held, values
}

// ResumeParafac continues a PARAFAC decomposition from a previous
// result (possibly reloaded with LoadParafac) for up to opt.MaxIters
// further iterations — the checkpoint/resume pattern for long
// decompositions. The rank is taken from the previous model.
func ResumeParafac(c *Cluster, x *Tensor, prev *ParafacResult, opt Options) (*ParafacResult, error) {
	iopt := opt.internal()
	iopt.WarmStart = prev.model
	res, err := core.ParafacALS(c.c, x.t, len(prev.Lambda), iopt)
	if err != nil {
		return nil, err
	}
	return wrapParafac(res), nil
}

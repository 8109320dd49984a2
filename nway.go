package haten2

import (
	"fmt"

	"github.com/haten2/haten2/internal/core"
	"github.com/haten2/haten2/internal/tensor"
)

// TensorN is a sparse tensor of order 3 or 4 — the order of the paper's
// motivating example, (source-ip, target-ip, port-number, timestamp)
// intrusion logs. The paper defines its decompositions and operators
// for general N; the distributed plans here implement orders 3 and 4.
type TensorN struct {
	t *tensor.Tensor
}

// NewTensorN returns an empty sparse tensor with the given mode sizes
// (3 or 4 of them).
func NewTensorN(dims ...int64) (*TensorN, error) {
	if len(dims) < 3 || len(dims) > 4 {
		return nil, fmt.Errorf("haten2: TensorN supports orders 3 and 4, got %d dims", len(dims))
	}
	return &TensorN{t: tensor.New(dims...)}, nil
}

// Append adds a nonzero entry at the given coordinates (one per mode).
func (x *TensorN) Append(v float64, coords ...int64) { x.t.Append(v, coords...) }

// Coalesce sorts entries, sums duplicates, and drops zeros.
func (x *TensorN) Coalesce() { x.t.Coalesce() }

// NNZ returns the number of stored entries.
func (x *TensorN) NNZ() int { return x.t.NNZ() }

// Order returns the number of modes.
func (x *TensorN) Order() int { return x.t.Order() }

// Dims returns the mode sizes.
func (x *TensorN) Dims() []int64 { return x.t.Dims() }

// At returns the value at the given coordinates (coalesce first).
func (x *TensorN) At(coords ...int64) float64 { return x.t.At(coords...) }

// Norm returns the Frobenius norm.
func (x *TensorN) Norm() float64 { return x.t.Norm() }

// Unwrap exposes the internal representation to sibling packages.
func (x *TensorN) Unwrap() *tensor.Tensor { return x.t }

// WrapTensorN adopts an internal tensor of order 3 or 4.
func WrapTensorN(t *tensor.Tensor) (*TensorN, error) {
	if t.Order() < 3 || t.Order() > 4 {
		return nil, fmt.Errorf("haten2: TensorN supports orders 3 and 4, got %d", t.Order())
	}
	return &TensorN{t: t}, nil
}

// ParafacResultN is an N-way PARAFAC decomposition.
type ParafacResultN struct {
	// Lambda holds the component weights.
	Lambda []float64
	// Factors holds one unit-column factor matrix per mode.
	Factors []*Matrix
	// Iters is the number of ALS iterations run.
	Iters int
	// Fits holds per-iteration fits when tracked.
	Fits []float64
	// Converged reports early stopping.
	Converged bool

	model *tensor.Kruskal
}

// Fit returns 1 − ‖𝒳−𝒳̂‖_F/‖𝒳‖_F.
func (r *ParafacResultN) Fit(x *TensorN) float64 { return r.model.Fit(x.t) }

// Predict evaluates the model at one coordinate.
func (r *ParafacResultN) Predict(coords ...int64) float64 { return r.model.At(coords...) }

// ParafacN runs distributed PARAFAC-ALS on a tensor of order 3 or 4 —
// the same loop as Parafac — with the plan Options.Variant names. At
// order 4 that is DRN or DRI: Naive and DNN are 3-way plans, and asking
// for one there returns *ErrOrder.
func ParafacN(c *Cluster, x *TensorN, rank int, opt Options) (*ParafacResultN, error) {
	res, err := core.ParafacALS(c.c, x.t, rank, opt.internal())
	if err != nil {
		return nil, err
	}
	out := &ParafacResultN{
		Lambda:    res.Model.Lambda,
		Iters:     res.Iters,
		Fits:      res.Fits,
		Converged: res.Converged,
		model:     res.Model,
	}
	for _, f := range res.Model.Factors {
		out.Factors = append(out.Factors, &Matrix{m: f})
	}
	return out, nil
}

// TuckerResultN is an N-way Tucker decomposition.
type TuckerResultN struct {
	// CoreAt evaluates the dense core tensor at the given coordinates.
	// CoreDims gives its shape.
	CoreDims  []int64
	Factors   []*Matrix
	Iters     int
	CoreNorms []float64
	Converged bool

	model *tensor.TuckerModel
}

// CoreAt returns 𝒢 at the given core coordinates.
func (r *TuckerResultN) CoreAt(coords ...int64) float64 { return r.model.Core.At(coords...) }

// Fit returns 1 − ‖𝒳−𝒳̂‖_F/‖𝒳‖_F.
func (r *TuckerResultN) Fit(x *TensorN) float64 { return r.model.Fit(x.t) }

// Predict evaluates the model at one coordinate.
func (r *TuckerResultN) Predict(coords ...int64) float64 { return r.model.At(coords...) }

// TuckerN runs distributed Tucker-ALS on a tensor of order 3 or 4 — the
// same loop as Tucker — with the plan Options.Variant names (DRN or DRI
// at order 4, as for ParafacN); core gives the desired core shape, one
// entry per mode.
func TuckerN(c *Cluster, x *TensorN, core3 []int, opt Options) (*TuckerResultN, error) {
	res, err := core.TuckerALS(c.c, x.t, core3, opt.internal())
	if err != nil {
		return nil, err
	}
	out := &TuckerResultN{
		CoreDims:  res.Model.Core.Dims(),
		Iters:     res.Iters,
		CoreNorms: res.CoreNorms,
		Converged: res.Converged,
		model:     res.Model,
	}
	for _, f := range res.Model.Factors {
		out.Factors = append(out.Factors, &Matrix{m: f})
	}
	return out, nil
}

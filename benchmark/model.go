package main

import (
	"fmt"
	"io"
	"math"

	haten2 "github.com/haten2/haten2"
	"github.com/haten2/haten2/internal/baseline"
	"github.com/haten2/haten2/internal/matrix"
	"github.com/haten2/haten2/internal/serve"
	"github.com/haten2/haten2/internal/tensor"
)

// model is what the pipeline needs from a decomposition result; both
// *haten2.ParafacResult and *haten2.TuckerResult provide it.
type model interface {
	Save(w io.Writer) error
	Predict(i, j, k int64) float64
	Fit(x *haten2.Tensor) float64
}

// The helpers below are the only places that know which of the two
// methods a workload runs.

func (w workload) tucker() bool { return w.Core > 0 }

func (w workload) options(seed int64, iters int) haten2.Options {
	return haten2.Options{Variant: haten2.DRI, MaxIters: iters, Seed: seed}
}

// decompose runs the workload's decomposition through the public API
// for iters ALS iterations.
func (w workload) decompose(c *haten2.Cluster, x *haten2.Tensor, seed int64, iters int) (model, error) {
	if w.tucker() {
		r, err := haten2.Tucker(c, x, [3]int{w.Core, w.Core, w.Core}, w.options(seed, iters))
		if err != nil {
			return nil, err
		}
		if r.Iters != iters {
			return nil, fmt.Errorf("tucker ran %d iterations, want %d", r.Iters, iters)
		}
		return r, nil
	}
	r, err := haten2.Parafac(c, x, w.Rank, w.options(seed, iters))
	if err != nil {
		return nil, err
	}
	if r.Iters != iters {
		return nil, fmt.Errorf("parafac ran %d iterations, want %d", r.Iters, iters)
	}
	return r, nil
}

func (w workload) load(r io.Reader) (model, error) {
	if w.tucker() {
		return haten2.LoadTucker(r)
	}
	return haten2.LoadParafac(r)
}

// parts is a model taken apart: the factors plus the coupling, λ for
// PARAFAC or the core tensor for Tucker.
type parts struct {
	factors [3]*matrix.Matrix
	lambda  []float64
	core    *tensor.Dense
}

func partsOf(m model) parts {
	switch r := m.(type) {
	case *haten2.ParafacResult:
		return parts{
			factors: [3]*matrix.Matrix{r.Factors[0].Unwrap(), r.Factors[1].Unwrap(), r.Factors[2].Unwrap()},
			lambda:  r.Lambda,
		}
	case *haten2.TuckerResult:
		return parts{
			factors: [3]*matrix.Matrix{r.Factors[0].Unwrap(), r.Factors[1].Unwrap(), r.Factors[2].Unwrap()},
			core:    r.Core.Unwrap(),
		}
	}
	panic(fmt.Sprintf("benchmark: unknown model type %T", m))
}

// coupling returns λ or the core's cells: the numbers besides the
// factors that define the model.
func (p parts) coupling() []float64 {
	if p.core != nil {
		return p.core.Data
	}
	return p.lambda
}

func (p parts) serveModel() (*serve.Model, error) {
	if p.core != nil {
		return serve.NewTuckerModel(p.core, p.factors)
	}
	return serve.NewParafacModel(p.lambda, p.factors)
}

// referenceTopK is the single-threaded full-sort scorer served rankings
// must match bit for bit.
func (p parts) referenceTopK(s, pr int64, k int) []baseline.TopKResult {
	if p.core != nil {
		return baseline.TuckerTopKObjects(p.core, p.factors, s, pr, k)
	}
	return baseline.ParafacTopKObjects(p.lambda, p.factors, s, pr, k)
}

// sameBits reports whether two models are equal at Float64bits.
func sameBits(a, b parts) error {
	eq := func(what string, x, y []float64) error {
		if len(x) != len(y) {
			return fmt.Errorf("%s: %d values vs %d", what, len(x), len(y))
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return fmt.Errorf("%s[%d]: %x vs %x", what, i, math.Float64bits(x[i]), math.Float64bits(y[i]))
			}
		}
		return nil
	}
	if err := eq("coupling", a.coupling(), b.coupling()); err != nil {
		return err
	}
	for m := range a.factors {
		if a.factors[m].Rows != b.factors[m].Rows || a.factors[m].Cols != b.factors[m].Cols {
			return fmt.Errorf("factor %d: shape %dx%d vs %dx%d", m,
				a.factors[m].Rows, a.factors[m].Cols, b.factors[m].Rows, b.factors[m].Cols)
		}
		if err := eq(fmt.Sprintf("factor %d", m), a.factors[m].Data, b.factors[m].Data); err != nil {
			return err
		}
	}
	return nil
}

package haten2_test

import (
	"errors"
	"math"
	"testing"

	haten2 "github.com/haten2/haten2"
	"github.com/haten2/haten2/internal/core"
	"github.com/haten2/haten2/internal/matrix"
)

// rank1Tensor4 builds an exactly rank-1 4-way tensor.
func rank1Tensor4(t *testing.T) *haten2.TensorN {
	t.Helper()
	a := []float64{1, 2}
	b := []float64{3, 1}
	c := []float64{1, 2, 1}
	d := []float64{2, 1}
	x, err := haten2.NewTensorN(2, 2, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 2; i++ {
		for j := int64(0); j < 2; j++ {
			for k := int64(0); k < 3; k++ {
				for l := int64(0); l < 2; l++ {
					x.Append(a[i]*b[j]*c[k]*d[l], i, j, k, l)
				}
			}
		}
	}
	x.Coalesce()
	return x
}

func TestNewTensorNValidation(t *testing.T) {
	if _, err := haten2.NewTensorN(2, 2); err == nil {
		t.Fatal("order 2 accepted")
	}
	if _, err := haten2.NewTensorN(2, 2, 2, 2, 2); err == nil {
		t.Fatal("order 5 accepted")
	}
	x, err := haten2.NewTensorN(3, 4, 5, 6)
	if err != nil {
		t.Fatal(err)
	}
	if x.Order() != 4 {
		t.Fatalf("order %d", x.Order())
	}
	d := x.Dims()
	if d[3] != 6 {
		t.Fatalf("dims %v", d)
	}
}

func TestParafacN4WayEndToEnd(t *testing.T) {
	x := rank1Tensor4(t)
	c := haten2.NewCluster(haten2.ClusterConfig{Machines: 4})
	res, err := haten2.ParafacN(c, x, 1, haten2.Options{Variant: haten2.DRI, MaxIters: 20, Seed: 1, TrackFit: true, Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if fit := res.Fit(x); fit < 0.999 {
		t.Fatalf("4-way rank-1 fit %v", fit)
	}
	if len(res.Factors) != 4 {
		t.Fatalf("%d factors", len(res.Factors))
	}
	want := x.At(1, 0, 2, 1)
	if got := res.Predict(1, 0, 2, 1); math.Abs(got-want) > 0.05*math.Abs(want) {
		t.Fatalf("predict %v want %v", got, want)
	}
	// 4-way jobs ran on the cluster.
	if c.Stats().Jobs == 0 {
		t.Fatal("no jobs recorded")
	}
}

func TestTuckerN4WayEndToEnd(t *testing.T) {
	x := rank1Tensor4(t)
	c := haten2.NewCluster(haten2.ClusterConfig{Machines: 4})
	res, err := haten2.TuckerN(c, x, []int{1, 1, 1, 1}, haten2.Options{Variant: haten2.DRI, MaxIters: 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if fit := res.Fit(x); fit < 0.999 {
		t.Fatalf("4-way Tucker fit %v (norms %v)", fit, res.CoreNorms)
	}
	if len(res.CoreDims) != 4 {
		t.Fatalf("core dims %v", res.CoreDims)
	}
	if res.CoreAt(0, 0, 0, 0) == 0 {
		t.Fatal("empty core")
	}
}

func TestParafacNOn3Way(t *testing.T) {
	// The N-way API accepts order 3 too and must agree with the 3-way
	// result quality.
	x, err := haten2.NewTensorN(3, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	a := []float64{1, 2, 3}
	b := []float64{2, 1}
	cv := []float64{1, 3}
	for i := int64(0); i < 3; i++ {
		for j := int64(0); j < 2; j++ {
			for k := int64(0); k < 2; k++ {
				x.Append(a[i]*b[j]*cv[k], i, j, k)
			}
		}
	}
	x.Coalesce()
	c := haten2.NewCluster(haten2.ClusterConfig{Machines: 2})
	res, err := haten2.ParafacN(c, x, 1, haten2.Options{Variant: haten2.DRI, MaxIters: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if fit := res.Fit(x); fit < 0.999 {
		t.Fatalf("3-way via N API fit %v", fit)
	}
}

// TestNWayHonoursVariant: at order 4 ParafacN and TuckerN run the plan
// Options.Variant names. DRN runs DRN's jobs — per mode, one Hadamard
// job per column of each other factor and one merge — and gives core's
// DRN model bit for bit; Naive and DNN are refused with *ErrOrder
// before any file is staged or any job runs.
func TestNWayHonoursVariant(t *testing.T) {
	x := rank1Tensor4(t)
	opt := haten2.Options{Variant: haten2.DRN, MaxIters: 3, Tol: 1e-12, Seed: 3}
	iopt := core.Options{Variant: core.DRN, MaxIters: 3, Tol: 1e-12, Seed: 3}
	newCluster := func() *haten2.Cluster { return haten2.NewCluster(haten2.ClusterConfig{Machines: 2}) }
	checkJobs := func(name string, c, ref *haten2.Cluster, iters, perIter int) {
		t.Helper()
		if got, want := c.Stats().Jobs, ref.Stats().Jobs; got != want || got != iters*perIter {
			t.Errorf("%s DRN ran %d jobs, core's DRN %d, want %d·%d", name, got, want, iters, perIter)
		}
	}

	c, ref := newCluster(), newCluster()
	pf, err := haten2.ParafacN(c, x, 2, opt)
	if err != nil {
		t.Fatal(err)
	}
	pfWant, err := core.ParafacALS(ref.Unwrap(), x.Unwrap(), 2, iopt)
	if err != nil {
		t.Fatal(err)
	}
	checkJobs("ParafacN", c, ref, pf.Iters, 4*(3*2+1))
	if !sameBits(pf.Lambda, pfWant.Model.Lambda) || !sameFactors(pf.Factors, pfWant.Model.Factors) {
		t.Error("ParafacN with DRN differs from core's DRN model")
	}

	c, ref = newCluster(), newCluster()
	shape := []int{2, 1, 2, 1}
	tk, err := haten2.TuckerN(c, x, shape, opt)
	if err != nil {
		t.Fatal(err)
	}
	tkWant, err := core.TuckerALS(ref.Unwrap(), x.Unwrap(), shape, iopt)
	if err != nil {
		t.Fatal(err)
	}
	checkJobs("TuckerN", c, ref, tk.Iters, 3*(2+1+2+1)+4) // a Hadamard job per column in each other mode, a merge per mode
	if !sameBits(tk.CoreNorms, tkWant.CoreNorms) || !sameFactors(tk.Factors, tkWant.Model.Factors) {
		t.Error("TuckerN with DRN differs from core's DRN model")
	}

	for _, v := range []haten2.Variant{haten2.Naive, haten2.DNN} {
		opt.Variant = v
		runs := map[string]func(c *haten2.Cluster) error{
			"ParafacN": func(c *haten2.Cluster) error { _, err := haten2.ParafacN(c, x, 2, opt); return err },
			"TuckerN":  func(c *haten2.Cluster) error { _, err := haten2.TuckerN(c, x, []int{1, 1, 1, 1}, opt); return err },
		}
		for name, run := range runs {
			c := newCluster()
			var e *haten2.ErrOrder
			if err := run(c); !errors.As(err, &e) || e.Order != 4 || e.Plan.String() != v.String() {
				t.Errorf("%s with %v at order 4: got %v, want *ErrOrder", name, v, err)
			}
			if st := c.Stats(); st.Jobs != 0 || len(c.Unwrap().FS().List()) != 0 {
				t.Errorf("%s with %v: refused input still reached the cluster: %+v, files %v", name, v, st, c.Unwrap().FS().List())
			}
		}
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameFactors(got []*haten2.Matrix, want []*matrix.Matrix) bool {
	if len(got) != len(want) {
		return false
	}
	for m, f := range got {
		if f.Rows() != want[m].Rows || f.Cols() != want[m].Cols {
			return false
		}
		for i := 0; i < f.Rows(); i++ {
			for j := 0; j < f.Cols(); j++ {
				if math.Float64bits(f.At(i, j)) != math.Float64bits(want[m].At(i, j)) {
					return false
				}
			}
		}
	}
	return true
}

package haten2_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	haten2 "github.com/haten2/haten2"
	"github.com/haten2/haten2/internal/gen"
	"github.com/haten2/haten2/internal/tensor"
)

func smallTensor() *haten2.Tensor {
	// An exactly rank-1 tensor: x(i,j,k) = a(i)b(j)c(k) with positive
	// factors, so a rank-1 PARAFAC must fit it perfectly.
	a := []float64{1, 2, 3}
	b := []float64{2, 1}
	c := []float64{1, 3}
	x := haten2.NewTensor(3, 2, 2)
	for i := int64(0); i < 3; i++ {
		for j := int64(0); j < 2; j++ {
			for k := int64(0); k < 2; k++ {
				x.Append(a[i]*b[j]*c[k], i, j, k)
			}
		}
	}
	x.Coalesce()
	return x
}

func TestTensorBasics(t *testing.T) {
	x := haten2.NewTensor(4, 5, 6)
	x.Append(2, 1, 2, 3)
	x.Append(3, 1, 2, 3)
	x.Coalesce()
	if x.NNZ() != 1 || x.At(1, 2, 3) != 5 {
		t.Fatalf("coalesce: nnz=%d at=%v", x.NNZ(), x.At(1, 2, 3))
	}
	i, j, k := x.Dims()
	if i != 4 || j != 5 || k != 6 {
		t.Fatalf("dims %d %d %d", i, j, k)
	}
	if math.Abs(x.Norm()-5) > 1e-12 {
		t.Fatalf("norm %v", x.Norm())
	}
}

func TestTensorIO(t *testing.T) {
	x := smallTensor()
	var buf bytes.Buffer
	if err := x.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := haten2.ReadTensor(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NNZ() != x.NNZ() {
		t.Fatalf("round trip nnz %d vs %d", back.NNZ(), x.NNZ())
	}
	if _, err := haten2.ReadTensor(strings.NewReader("0 0 1\n")); err == nil {
		t.Fatal("2-way input accepted")
	}
}

func TestParafacEndToEnd(t *testing.T) {
	x := smallTensor()
	c := haten2.NewCluster(haten2.ClusterConfig{Machines: 4})
	res, err := haten2.Parafac(c, x, 1, haten2.Options{Variant: haten2.DRI, MaxIters: 25, Seed: 1, TrackFit: true, Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if fit := res.Fit(x); fit < 0.999 {
		t.Fatalf("rank-1 fit %v", fit)
	}
	if res.Factors[0].Rows() != 3 || res.Factors[0].Cols() != 1 {
		t.Fatalf("factor shape %dx%d", res.Factors[0].Rows(), res.Factors[0].Cols())
	}
	// Predict must reproduce an entry closely.
	if p := res.Predict(2, 0, 1); math.Abs(p-x.At(2, 0, 1)) > 0.05*math.Abs(x.At(2, 0, 1)) {
		t.Fatalf("predict %v want %v", p, x.At(2, 0, 1))
	}
	st := c.Stats()
	if st.Jobs == 0 || st.ShuffleRecords == 0 || st.SimSeconds <= 0 {
		t.Fatalf("no accounting: %+v", st)
	}
}

func TestTuckerEndToEnd(t *testing.T) {
	x := smallTensor()
	c := haten2.NewCluster(haten2.ClusterConfig{Machines: 4})
	res, err := haten2.Tucker(c, x, [3]int{1, 1, 1}, haten2.Options{Variant: haten2.DRI, MaxIters: 15, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if fit := res.Fit(x); fit < 0.999 {
		t.Fatalf("tucker fit %v (core norms %v)", fit, res.CoreNorms)
	}
	p, q, r := res.Core.Dims()
	if p != 1 || q != 1 || r != 1 {
		t.Fatalf("core dims %d %d %d", p, q, r)
	}
	if res.Core.Norm() <= 0 {
		t.Fatal("empty core")
	}
}

func TestAllVariantsThroughPublicAPI(t *testing.T) {
	x := haten2.WrapTensor(gen.Random(5, [3]int64{6, 6, 6}, 25).Clone())
	for _, v := range []haten2.Variant{haten2.Naive, haten2.DNN, haten2.DRN, haten2.DRI} {
		c := haten2.NewCluster(haten2.ClusterConfig{Machines: 2})
		if _, err := haten2.Parafac(c, x, 2, haten2.Options{Variant: v, MaxIters: 2, Seed: 3}); err != nil {
			t.Fatalf("variant %v: %v", v, err)
		}
	}
}

func TestVariantNames(t *testing.T) {
	for _, v := range []haten2.Variant{haten2.Naive, haten2.DNN, haten2.DRN, haten2.DRI} {
		got, err := haten2.ParseVariant(v.String())
		if err != nil || got != v {
			t.Fatalf("round trip %v", v)
		}
	}
}

func TestNonnegativeParafacPublic(t *testing.T) {
	x := smallTensor()
	c := haten2.NewCluster(haten2.ClusterConfig{Machines: 2})
	res, err := haten2.NonnegativeParafac(c, x, 1, haten2.Options{Variant: haten2.DRI, MaxIters: 20, Seed: 2, TrackFit: true})
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < 3; m++ {
		f := res.Factors[m]
		for i := 0; i < f.Rows(); i++ {
			for j := 0; j < f.Cols(); j++ {
				if f.At(i, j) < 0 {
					t.Fatalf("negative factor entry at mode %d", m)
				}
			}
		}
	}
}

// NonnegativeParafac judges a coordinate by the sum of its duplicates:
// a lone −1 is refused with its coordinate before any job runs, and
// −1 + 2 at one coordinate is the nonnegative value 1.
func TestNonnegativeParafacNegativeInput(t *testing.T) {
	opt := haten2.Options{Variant: haten2.DRI, MaxIters: 2, Seed: 1}
	build := func(vals ...float64) *haten2.Tensor {
		x := haten2.NewTensor(3, 2, 2)
		x.Append(1, 0, 0, 0)
		for _, v := range vals {
			x.Append(v, 2, 1, 0)
		}
		x.Append(2, 1, 1, 1)
		return x
	}
	c := haten2.NewCluster(haten2.ClusterConfig{Machines: 2})
	_, err := haten2.NonnegativeParafac(c, build(-1), 1, opt)
	var neg *haten2.ErrNegativeInput
	if !errors.As(err, &neg) {
		t.Fatalf("want *ErrNegativeInput, got %v", err)
	}
	if !slices.Equal(neg.Index, []int64{2, 1, 0}) || neg.Value != -1 {
		t.Fatalf("error names entry %v = %v, want [2 1 0] = -1", neg.Index, neg.Value)
	}
	if st := c.Stats(); st.Jobs != 0 {
		t.Fatalf("refused input still ran %d jobs", st.Jobs)
	}
	c = haten2.NewCluster(haten2.ClusterConfig{Machines: 2})
	if _, err := haten2.NonnegativeParafac(c, build(-1, 2), 1, opt); err != nil {
		t.Fatalf("duplicates summing to 1 refused: %v", err)
	}
}

func TestMaskedParafacPublic(t *testing.T) {
	x := smallTensor()
	c := haten2.NewCluster(haten2.ClusterConfig{Machines: 2})
	missing := [][3]int64{{0, 0, 0}}
	res, err := haten2.MaskedParafac(c, x, missing, 1, haten2.Options{Variant: haten2.DRI, MaxIters: 25, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	truth := x.At(0, 0, 0)
	if pred := res.Predict(0, 0, 0); math.Abs(pred-truth) > 0.1*truth {
		t.Fatalf("held-out prediction %v want %v", pred, truth)
	}
}

// TestMaskedParafacRejectsBadInput: an out-of-range missing coordinate
// used to panic on the second iteration (the E-step indexed a factor
// row past its end) and a non-3-way tensor in Tensor.Append; both are
// now typed errors returned before anything is staged.
func TestMaskedParafacRejectsBadInput(t *testing.T) {
	c := haten2.NewCluster(haten2.ClusterConfig{Machines: 2})
	opt := haten2.Options{Variant: haten2.DRI, MaxIters: 3, Seed: 2}
	var bad *haten2.ErrMaskedInput

	_, err := haten2.MaskedParafac(c, smallTensor(), [][3]int64{{0, 0, 0}, {18, 0, 0}}, 1, opt)
	if !errors.As(err, &bad) || bad.Pos != 1 || bad.Coord != [3]int64{18, 0, 0} {
		t.Fatalf("out-of-range coordinate: got %v", err)
	}
	if _, err := haten2.MaskedParafac(c, smallTensor(), [][3]int64{{0, -1, 0}}, 1, opt); !errors.As(err, &bad) || bad.Pos != 0 {
		t.Fatalf("negative coordinate: got %v", err)
	}
	x4 := tensor.New(2, 2, 2, 2)
	x4.Append(1, 0, 0, 0, 0)
	if _, err := haten2.MaskedParafac(c, haten2.WrapTensor(x4), nil, 1, opt); !errors.As(err, &bad) || bad.Pos != -1 {
		t.Fatalf("4-way tensor: got %v", err)
	}
	if st := c.Stats(); st.Jobs != 0 || len(c.Unwrap().FS().List()) != 0 {
		t.Fatalf("rejected inputs still reached the cluster: %+v, files %v", st, c.Unwrap().FS().List())
	}
}

// TestNonFiniteInputIsTyped: a NaN or ±Inf value in a tensor built in
// code, or duplicate entries whose sum overflows, is *ErrNonFinite
// naming the first bad entry from every decomposition at orders 3 and
// 4, returned before any job runs or any file is written, never a NaN
// model with a nil error.
func TestNonFiniteInputIsTyped(t *testing.T) {
	bads := []struct {
		name string
		vals []float64 // appended at one coordinate
		want float64
	}{
		{"NaN", []float64{math.NaN()}, math.NaN()},
		{"+Inf", []float64{math.Inf(1)}, math.Inf(1)},
		{"-Inf", []float64{math.Inf(-1)}, math.Inf(-1)},
		{"overflowing duplicates", []float64{math.MaxFloat64, math.MaxFloat64}, math.Inf(1)},
	}
	opt := haten2.Options{Variant: haten2.DRI, MaxIters: 2, Seed: 1}
	for _, bad := range bads {
		for _, order := range []int{3, 4} {
			at := []int64{2, 1, 0, 1}[:order]
			build := func() *haten2.TensorN {
				x, err := haten2.NewTensorN([]int64{3, 2, 2, 2}[:order]...)
				if err != nil {
					t.Fatal(err)
				}
				x.Append(1, make([]int64, order)...)
				for _, v := range bad.vals {
					x.Append(v, at...)
				}
				x.Append(2, []int64{1, 1, 1, 1}[:order]...)
				return x
			}
			for name, run := range everyDecomposition(order, build, opt) {
				c := haten2.NewCluster(haten2.ClusterConfig{Machines: 2})
				err := run(c)
				if name == "NonnegativeParafac" && bad.want < 0 {
					// Rejected before staging as a negative value.
					var neg *haten2.ErrNegativeInput
					if !errors.As(err, &neg) || !slices.Equal(neg.Index, at) {
						t.Errorf("%s, order %d, %s: want *ErrNegativeInput at %v, got %v", bad.name, order, name, at, err)
					}
					continue
				}
				var nf *haten2.ErrNonFinite
				if !errors.As(err, &nf) {
					t.Errorf("%s, order %d, %s: want *ErrNonFinite, got %v", bad.name, order, name, err)
					continue
				}
				if !slices.Equal(nf.Index, at) || fmt.Sprint(nf.Value) != fmt.Sprint(bad.want) {
					t.Errorf("%s, order %d, %s: error names entry %v = %v, want %v = %v", bad.name, order, name, nf.Index, nf.Value, at, bad.want)
				}
				if st := c.Stats(); st.Jobs != 0 || len(c.Unwrap().FS().List()) != 0 {
					t.Errorf("%s, order %d, %s: rejected input still reached the cluster: %+v, files %v", bad.name, order, name, st, c.Unwrap().FS().List())
				}
			}
		}
	}
}

// everyDecomposition runs each decomposition of the public API on a fresh
// tensor from build: ParafacN and TuckerN at orders 3 and 4, and at
// order 3 also Parafac, Tucker, NonnegativeParafac and MaskedParafac.
func everyDecomposition(order int, build func() *haten2.TensorN, opt haten2.Options) map[string]func(*haten2.Cluster) error {
	runs := map[string]func(*haten2.Cluster) error{
		"ParafacN": func(c *haten2.Cluster) error { _, err := haten2.ParafacN(c, build(), 2, opt); return err },
		"TuckerN": func(c *haten2.Cluster) error {
			_, err := haten2.TuckerN(c, build(), []int{1, 1, 1, 1}[:order], opt)
			return err
		},
	}
	if order == 3 {
		x3 := func() *haten2.Tensor { return haten2.WrapTensor(build().Unwrap()) }
		runs["Parafac"] = func(c *haten2.Cluster) error { _, err := haten2.Parafac(c, x3(), 2, opt); return err }
		runs["Tucker"] = func(c *haten2.Cluster) error { _, err := haten2.Tucker(c, x3(), [3]int{1, 1, 1}, opt); return err }
		runs["NonnegativeParafac"] = func(c *haten2.Cluster) error {
			_, err := haten2.NonnegativeParafac(c, x3(), 2, opt)
			return err
		}
		runs["MaskedParafac"] = func(c *haten2.Cluster) error {
			_, err := haten2.MaskedParafac(c, x3(), [][3]int64{{0, 1, 1}}, 2, opt)
			return err
		}
	}
	return runs
}

// TestEmptyTensorIsTyped: a tensor with no nonzero entry once
// coalesced — none appended, or entries that cancel — has no model to
// report, so every decomposition refuses it with *ErrEmptyTensor before any
// file is staged or any job runs.
func TestEmptyTensorIsTyped(t *testing.T) {
	opt := haten2.Options{Variant: haten2.DRI, MaxIters: 2, Seed: 1}
	for _, cancel := range []bool{false, true} {
		for _, order := range []int{3, 4} {
			build := func() *haten2.TensorN {
				x, err := haten2.NewTensorN([]int64{2, 2, 2, 2}[:order]...)
				if err != nil {
					t.Fatal(err)
				}
				if cancel {
					x.Append(1, make([]int64, order)...)
					x.Append(-1, make([]int64, order)...)
				}
				return x
			}
			for name, run := range everyDecomposition(order, build, opt) {
				c := haten2.NewCluster(haten2.ClusterConfig{Machines: 2})
				var e *haten2.ErrEmptyTensor
				if err := run(c); !errors.As(err, &e) || len(e.Dims) != order {
					t.Errorf("order %d, cancelling entries %v, %s: want *ErrEmptyTensor, got %v", order, cancel, name, err)
				}
				if st := c.Stats(); st.Jobs != 0 || len(c.Unwrap().FS().List()) != 0 {
					t.Errorf("order %d, %s: refused input still reached the cluster: %+v, files %v", order, name, st, c.Unwrap().FS().List())
				}
			}
		}
	}
}

func TestResourceLimitSurfacesThroughAPI(t *testing.T) {
	x := haten2.WrapTensor(gen.Random(6, [3]int64{40, 40, 40}, 50).Clone())
	c := haten2.NewCluster(haten2.ClusterConfig{Machines: 2, MaxShuffleRecords: 10_000})
	// Naive's broadcast charge (IJK = 64000) must exceed the cap.
	if _, err := haten2.Parafac(c, x, 2, haten2.Options{Variant: haten2.Naive, MaxIters: 1}); err == nil {
		t.Fatal("naive should fail on a capped cluster")
	}
	// DRI stays within it.
	c2 := haten2.NewCluster(haten2.ClusterConfig{Machines: 2, MaxShuffleRecords: 10_000})
	if _, err := haten2.Parafac(c2, x, 2, haten2.Options{Variant: haten2.DRI, MaxIters: 1}); err != nil {
		t.Fatalf("DRI failed: %v", err)
	}
}

func TestRowTotals(t *testing.T) {
	x := smallTensor()
	c := haten2.NewCluster(haten2.ClusterConfig{Machines: 1})
	res, err := haten2.Parafac(c, x, 1, haten2.Options{Variant: haten2.DRI, MaxIters: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	totals := res.Factors[0].RowTotals()
	if len(totals) != 3 {
		t.Fatalf("totals %v", totals)
	}
	for i, tv := range totals {
		if tv < 0 {
			t.Fatalf("negative total at %d", i)
		}
	}
	col := res.Factors[0].Col(0)
	if len(col) != 3 {
		t.Fatalf("col %v", col)
	}
}

func TestStatsResetKeepsWorking(t *testing.T) {
	x := smallTensor()
	c := haten2.NewCluster(haten2.ClusterConfig{Machines: 2})
	if _, err := haten2.Parafac(c, x, 1, haten2.Options{Variant: haten2.DRI, MaxIters: 1}); err != nil {
		t.Fatal(err)
	}
	c.ResetStats()
	if c.Stats().Jobs != 0 {
		t.Fatal("stats not reset")
	}
	if _, err := haten2.Parafac(c, x, 1, haten2.Options{Variant: haten2.DRI, MaxIters: 1}); err != nil {
		t.Fatalf("cluster unusable after reset: %v", err)
	}
}

func TestEntriesIteration(t *testing.T) {
	x := smallTensor()
	count := 0
	var sum float64
	x.Entries(func(i, j, k int64, v float64) bool {
		count++
		sum += v
		return true
	})
	if count != x.NNZ() {
		t.Fatalf("visited %d of %d", count, x.NNZ())
	}
	// Early stop.
	count = 0
	x.Entries(func(i, j, k int64, v float64) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestUnwrapAccessors(t *testing.T) {
	x := smallTensor()
	if x.Unwrap().NNZ() != x.NNZ() {
		t.Fatal("Unwrap tensor mismatch")
	}
	c := haten2.NewCluster(haten2.ClusterConfig{Machines: 2})
	if c.Unwrap().Machines() != 2 {
		t.Fatal("Unwrap cluster mismatch")
	}
}

func TestTensorNAccessors(t *testing.T) {
	x, err := haten2.NewTensorN(2, 3, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	x.Append(2, 1, 2, 3, 4)
	x.Append(3, 1, 2, 3, 4)
	x.Coalesce()
	if x.NNZ() != 1 || x.At(1, 2, 3, 4) != 5 {
		t.Fatalf("nnz=%d at=%v", x.NNZ(), x.At(1, 2, 3, 4))
	}
	if x.Norm() != 5 {
		t.Fatalf("norm %v", x.Norm())
	}
	if _, err := haten2.WrapTensorN(x.Unwrap()); err == nil {
		t.Log("") // WrapTensorN of order-4 is fine
	}
}

func TestSplitHoldoutThroughAPI(t *testing.T) {
	x := smallTensor()
	train, held, vals := haten2.SplitHoldout(x, 0.25, 3)
	if train.NNZ()+len(held) != x.NNZ() {
		t.Fatalf("split lost entries: %d + %d != %d", train.NNZ(), len(held), x.NNZ())
	}
	// Completing the held-out entries from the training tensor works
	// end to end for the exactly rank-1 input.
	c := haten2.NewCluster(haten2.ClusterConfig{Machines: 2})
	res, err := haten2.MaskedParafac(c, train, held, 1, haten2.Options{Variant: haten2.DRI, MaxIters: 30, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range held {
		pred := res.Predict(h[0], h[1], h[2])
		if d := pred - vals[i]; d > 0.2*vals[i] || d < -0.2*vals[i] {
			t.Fatalf("held-out %v predicted %v want %v", h, pred, vals[i])
		}
	}
}

package serve

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"github.com/haten2/haten2/internal/baseline"
	"github.com/haten2/haten2/internal/matrix"
)

// wideParafac builds a random PARAFAC model whose values spread over
// 2^±600: the object rows sit around 2^cObj with per-row exponents
// spread by up to 60 binades (so norms decay across blocks), the query
// vectors around 2^cQ, with cObj+cQ inside ±900 so most scores are
// finite. Some object rows are all zero, some duplicate an earlier row
// (equal norms, exact ties at the cut-off), some entries are ±0, and
// subject 0 is all zero (an all-zero query).
func wideParafac(rng *rand.Rand) ([]float64, [3]*matrix.Matrix) {
	rank, objects := 1+rng.Intn(6), 1+rng.Intn(300)
	cQ := rng.Intn(1241) - 620
	cObj := max(-600, -900-cQ) + rng.Intn(min(600, 900-cQ)-max(-600, -900-cQ)+1)
	spread := []int{0, 4, 60}[rng.Intn(3)]
	entry := func(e int) float64 {
		switch rng.Intn(10) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		}
		return math.Ldexp(rng.Float64()*2-1, e+rng.Intn(7)-3)
	}
	obj := matrix.New(objects, rank)
	for o := 0; o < objects; o++ {
		switch p := rng.Float64(); {
		case p < 0.15:
			continue
		case p < 0.35 && o > 0:
			copy(obj.Row(o), obj.Row(rng.Intn(o)))
			continue
		}
		e := cObj + rng.Intn(2*spread+1) - spread
		for r := range obj.Row(o) {
			obj.Row(o)[r] = entry(e)
		}
	}
	subj, pred := matrix.New(4, rank), matrix.New(3, rank)
	for i := range subj.Data[rank:] {
		subj.Data[rank+i] = entry(cQ / 2)
	}
	for i := range pred.Data {
		pred.Data[i] = entry(cQ - cQ/2)
	}
	lambda := make([]float64, rank)
	for r := range lambda {
		lambda[r] = 0.5 + rng.Float64()
	}
	return lambda, [3]*matrix.Matrix{subj, obj, pred}
}

// TestScanCutoffExact is the property test of the norm-ordered scan: on
// random wide-exponent PARAFAC models, at shards {1, 3, 16}, k {1, 3,
// 10, more than the rows} and GOMAXPROCS {1, 4}, every served ranking
// equals the baseline scorer's at Float64bits. A query is skipped only
// when the baseline's full ranking holds a non-finite score.
func TestScanCutoffExact(t *testing.T) {
	seeds := 4000
	if testing.Short() {
		seeds = 400
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		lambda, factors := wideParafac(rng)
		model, err := NewParafacModel(lambda, factors)
		if err != nil {
			t.Fatal(err)
		}
		objects := factors[1].Rows
		type query struct{ s, p int64 }
		var queries []query
		var want [][]baseline.TopKResult
		for s := int64(0); s < 4; s++ {
			for p := int64(0); p < 3; p++ {
				full := baseline.ParafacTopKObjects(lambda, factors, s, p, objects)
				finite := true
				for _, r := range full {
					finite = finite && !math.IsNaN(r.Score) && !math.IsInf(r.Score, 0)
				}
				if finite {
					queries = append(queries, query{s, p})
					want = append(want, full)
				}
			}
		}
		procs := []int{1, 4}[seed%2]
		runtime.GOMAXPROCS(procs)
		for _, shards := range []int{1, 3, 16} {
			srv, err := New(model, Config{Shards: shards, NoCache: true, MaxBatch: 4})
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for _, k := range []int{1, 3, 10, objects + 5} {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i, q := range queries {
						got, err := srv.TopKObjects(q.s, q.p, k, nil)
						if err != nil {
							t.Error(err)
							return
						}
						sameAsBaseline(t, got, want[i][:min(k, objects)], fmt.Sprintf("seed %d procs=%d shards=%d k=%d query %v", seed, procs, shards, k, q))
					}
				}()
			}
			wg.Wait()
			srv.Close()
		}
	}
}

// TestScanPrunes guards the cut-off against a silent fall-back to full
// scans, which the bit-identity tests cannot see: on a model whose row
// norms decay, a positive query scores under 10 % of the compact rows,
// and an all-zero query scores none.
func TestScanPrunes(t *testing.T) {
	const objects, rank, k = 8192, 8, 10
	rng := rand.New(rand.NewSource(11))
	factors := [3]*matrix.Matrix{matrix.New(2, rank), matrix.New(objects, rank), matrix.New(1, rank)}
	for _, o := range rng.Perm(objects) {
		for r := range factors[1].Row(o) {
			factors[1].Row(o)[r] = rng.Float64() * math.Pow(0.99, float64(o))
		}
	}
	for r := 0; r < rank; r++ {
		factors[0].Set(1, r, 0.5+rng.Float64())
		factors[2].Set(0, r, 0.5+rng.Float64())
	}
	lambda := make([]float64, rank)
	for r := range lambda {
		lambda[r] = 1
	}
	model, err := NewParafacModel(lambda, factors)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(model, Config{Shards: 4, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, tc := range []struct {
		subject int64
		most    uint64
	}{{1, objects / 10}, {0, 0}} {
		before := srv.Stats().RowsScored
		got, err := srv.TopKObjects(tc.subject, 0, k, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameAsBaseline(t, got, baseline.ParafacTopKObjects(lambda, factors, tc.subject, 0, k), fmt.Sprintf("subject %d", tc.subject))
		if n := srv.Stats().RowsScored - before; n > tc.most || tc.most > 0 && n == 0 {
			t.Errorf("subject %d: %d of %d rows scored, want at most %d", tc.subject, n, objects, tc.most)
		}
	}
}

// TestNormBoundCertified checks normBound against the exact norm,
// computed in big.Float, on vectors whose entries spread over the whole
// float64 range, subnormals included: the bound squared is never below
// the exact sum of squares, and never above it by more than 2⁻⁴⁰
// relative.
func TestNormBoundCertified(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	exact := func(x []float64) *big.Float {
		sum := new(big.Float).SetPrec(4400)
		for _, v := range x {
			f := new(big.Float).SetPrec(4400).SetFloat64(v)
			sum.Add(sum, f.Mul(f, f))
		}
		return sum
	}
	for i := 0; i < 20000; i++ {
		x := make([]float64, 1+rng.Intn(16))
		top := rng.Intn(2100) - 1075
		for j := range x {
			x[j] = math.Ldexp(rng.Float64()*2-1, top-rng.Intn(1+[]int{2, 60, 2100}[j%3]))
		}
		n := normBound(x)
		if math.IsInf(n, 1) {
			continue
		}
		nn := new(big.Float).SetPrec(4400).SetFloat64(n)
		nn.Mul(nn, nn)
		ex := exact(x)
		if nn.Cmp(ex) < 0 {
			t.Fatalf("%v: normBound %g is below the exact norm", x, n)
		}
		if ex.Sign() > 0 {
			if ratio, _ := new(big.Float).Quo(nn, ex).Float64(); ratio > 1+0x1p-40 && n > 0x1p-1000 {
				t.Fatalf("%v: normBound %g exceeds the exact norm by %g relative", x, n, ratio-1)
			}
		}
	}
	if normBound([]float64{0, math.Copysign(0, -1)}) != 0 || normBound([]float64{1, math.Inf(-1)}) <= math.MaxFloat64 {
		t.Error("normBound mishandles an all-zero or infinite vector")
	}
}

package matrix

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomSmall draws a matrix with bounded shape and entries so that
// property tests stay numerically well-behaved.
func randomSmall(rng *rand.Rand, maxDim int) *Matrix {
	r := 1 + rng.Intn(maxDim)
	c := 1 + rng.Intn(maxDim)
	m := New(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func quickCfg(seed int64) *quick.Config {
	return &quick.Config{
		MaxCount: 50,
		Rand:     rand.New(rand.NewSource(seed)),
	}
}

func TestQuickTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomSmall(rng, 6)
		return m.T().T().Equal(m, 0)
	}
	if err := quick.Check(f, quickCfg(11)); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMulAssociative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		a, b, c := New(n, n), New(n, n), New(n, n)
		for _, m := range []*Matrix{a, b, c} {
			for i := range m.Data {
				m.Data[i] = rng.NormFloat64()
			}
		}
		l := Mul(Mul(a, b), c)
		r := Mul(a, Mul(b, c))
		return l.Equal(r, 1e-8*math.Max(1, l.MaxAbs()))
	}
	if err := quick.Check(f, quickCfg(12)); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMulTransposeRule(t *testing.T) {
	// (ab)ᵀ == bᵀaᵀ
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomSmall(rng, 6)
		b := New(a.Cols, 1+rng.Intn(6))
		for i := range b.Data {
			b.Data[i] = rng.NormFloat64()
		}
		return Mul(a, b).T().Equal(Mul(b.T(), a.T()), 1e-9)
	}
	if err := quick.Check(f, quickCfg(13)); err != nil {
		t.Fatal(err)
	}
}

func TestQuickKhatriRaoGramIdentity(t *testing.T) {
	// (A⊙B)ᵀ(A⊙B) == AᵀA ∗ BᵀB — the identity PARAFAC-ALS exploits to
	// avoid forming the Khatri-Rao product explicitly.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 1 + rng.Intn(4)
		a := New(1+rng.Intn(6), r)
		b := New(1+rng.Intn(6), r)
		for _, m := range []*Matrix{a, b} {
			for i := range m.Data {
				m.Data[i] = rng.NormFloat64()
			}
		}
		left := Gram(KhatriRao(a, b))
		right := Hadamard(Gram(a), Gram(b))
		return left.Equal(right, 1e-8)
	}
	if err := quick.Check(f, quickCfg(14)); err != nil {
		t.Fatal(err)
	}
}

func TestQuickQRProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomSmall(rng, 7)
		q, r := QR(a)
		if !Mul(q, r).Equal(a, 1e-8) {
			return false
		}
		return Gram(q).Equal(Identity(q.Cols), 1e-8)
	}
	if err := quick.Check(f, quickCfg(15)); err != nil {
		t.Fatal(err)
	}
}

func TestQuickEigenTrace(t *testing.T) {
	// Sum of eigenvalues equals the trace for symmetric matrices.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		b := New(n, n)
		for i := range b.Data {
			b.Data[i] = rng.NormFloat64()
		}
		a := Mul(b, b.T())
		vals, _ := JacobiEigen(a)
		var sum, trace float64
		for i := 0; i < n; i++ {
			trace += a.At(i, i)
			sum += vals[i]
		}
		return math.Abs(sum-trace) < 1e-8*math.Max(1, math.Abs(trace))
	}
	if err := quick.Check(f, quickCfg(16)); err != nil {
		t.Fatal(err)
	}
}

func TestQuickPseudoInversePenrose(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		b := New(n, 1+rng.Intn(n))
		for i := range b.Data {
			b.Data[i] = rng.NormFloat64()
		}
		a := Mul(b, b.T()) // possibly rank deficient PSD
		p := PseudoInverse(a)
		scale := math.Max(1, a.MaxAbs())
		return Mul(Mul(a, p), a).Equal(a, 1e-7*scale) &&
			Mul(Mul(p, a), p).Equal(p, 1e-7*math.Max(1, p.MaxAbs()))
	}
	if err := quick.Check(f, quickCfg(17)); err != nil {
		t.Fatal(err)
	}
}

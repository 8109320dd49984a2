package serve

import (
	"fmt"
	"math"

	"github.com/haten2/haten2/internal/matrix"
	"github.com/haten2/haten2/internal/tensor"
)

// Model is a decomposition in serving layout: the three factor matrices
// plus the coupling — λ weights for PARAFAC, the dense core for Tucker.
// Both reduce a (subject, predicate) query to one query vector q such
// that the object scores are the matrix–vector product Object·q, which
// is what lets PARAFAC and Tucker share the sharded serving kernel.
type Model struct {
	subject   *matrix.Matrix
	object    *matrix.Matrix
	predicate *matrix.Matrix
	lambda    []float64     // PARAFAC component weights; nil for Tucker
	core      *tensor.Dense // Tucker core; nil for PARAFAC

	// rowTotals[mode] holds per-row sums of absolute values, the §IV-C
	// normalizer for membership and entity rankings.
	rowTotals [3][]float64
}

// ErrNonFinite is the error NewParafacModel and NewTuckerModel return
// for a NaN or ±Inf coefficient: a NaN score has no place in the
// ranking order, so such a model is refused, not served (DESIGN.md §3h).
type ErrNonFinite struct {
	Part  string // "factor", "lambda" or "core"
	Mode  int    // the factor's mode (0 subjects, 1 objects, 2 predicates); -1 for lambda and core
	At    []int  // factor: row, column; lambda: component; core: its three coordinates
	Value float64
}

func (e *ErrNonFinite) Error() string {
	return fmt.Sprintf("serve: non-finite %s value %v at mode %d, index %v", e.Part, e.Value, e.Mode, e.At)
}

// checkFinite returns an *ErrNonFinite for the first NaN or ±Inf in
// vals, a row-major array of shape dims, or nil.
func checkFinite(part string, mode int, vals []float64, dims ...int) error {
	for off, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			at := make([]int, len(dims))
			for d := len(dims) - 1; d >= 0; d-- {
				at[d], off = off%dims[d], off/dims[d]
			}
			return &ErrNonFinite{Part: part, Mode: mode, At: at, Value: v}
		}
	}
	return nil
}

// NewParafacModel builds a serving model from a PARAFAC decomposition
// 𝒳 ≈ Σ_r λ_r a_r∘b_r∘c_r with factors (subject, object, predicate).
func NewParafacModel(lambda []float64, factors [3]*matrix.Matrix) (*Model, error) {
	if err := checkFinite("lambda", -1, lambda, len(lambda)); err != nil {
		return nil, err
	}
	r := len(lambda)
	return newModel(factors, [3]int{r, r, r}, lambda, nil)
}

// NewTuckerModel builds a serving model from a Tucker decomposition
// 𝒳 ≈ 𝒢 ×₁A ×₂B ×₃C with factors (subject, object, predicate).
func NewTuckerModel(core *tensor.Dense, factors [3]*matrix.Matrix) (*Model, error) {
	if core == nil || core.Order() != 3 {
		return nil, fmt.Errorf("serve: Tucker model needs a 3-way core")
	}
	d := core.Dims()
	dims := [3]int{int(d[0]), int(d[1]), int(d[2])}
	if err := checkFinite("core", -1, core.Data, dims[:]...); err != nil {
		return nil, err
	}
	return newModel(factors, dims, nil, core)
}

// newModel checks each factor's presence, width (cols[m] for mode m)
// and entries, and builds the model around them.
func newModel(factors [3]*matrix.Matrix, cols [3]int, lambda []float64, core *tensor.Dense) (*Model, error) {
	for m, f := range factors {
		if f == nil {
			return nil, fmt.Errorf("serve: nil factor for mode %d", m)
		}
		if f.Cols != cols[m] {
			return nil, fmt.Errorf("serve: factor %d has %d columns, want %d", m, f.Cols, cols[m])
		}
		if err := checkFinite("factor", m, f.Data, f.Rows, f.Cols); err != nil {
			return nil, err
		}
	}
	mo := &Model{subject: factors[0], object: factors[1], predicate: factors[2], lambda: lambda, core: core}
	mo.fillTotals()
	return mo, nil
}

func (m *Model) fillTotals() {
	for mode, f := range [3]*matrix.Matrix{m.subject, m.object, m.predicate} {
		totals := make([]float64, f.Rows)
		for i := 0; i < f.Rows; i++ {
			var s float64
			for _, v := range f.Row(i) {
				s += math.Abs(v)
			}
			totals[i] = s
		}
		m.rowTotals[mode] = totals
	}
}

// Factor returns the factor matrix of one mode (0 subjects, 1 objects,
// 2 predicates).
func (m *Model) Factor(mode int) *matrix.Matrix {
	return [3]*matrix.Matrix{m.subject, m.object, m.predicate}[mode]
}

// RowTotals returns the per-row absolute sums of one mode's factor.
func (m *Model) RowTotals(mode int) []float64 { return m.rowTotals[mode] }

// Objects returns the size of the object mode — the universe a
// (subject, predicate) query ranks.
func (m *Model) Objects() int { return m.object.Rows }

// Components returns the number of latent components (the rank, or the
// object-mode core dimension for Tucker).
func (m *Model) Components() int { return m.object.Cols }

// QueryDim is the length of the query vector — equal to Components.
func (m *Model) QueryDim() int { return m.object.Cols }

// queryVecInto fills dst (length QueryDim) with the query vector of a
// (subject, predicate) pair.
//
// PARAFAC: q_r = λ_r·A(s,r)·C(p,r), so Object·q scores every object o
// as Σ_r λ_r·A(s,r)·B(o,r)·C(p,r) — the model's predicted value at
// (s, o, p). Tucker: q_j = Σ_a Σ_c 𝒢(a,j,c)·A(s,a)·C(p,c), the core
// contracted with the subject and predicate rows.
//
// The evaluation order (left-to-right products, a-outer c-inner
// accumulation) is pinned: internal/baseline's reference scorer uses
// the same order, which is what makes served scores bit-identical to
// the single-threaded reference.
func (m *Model) queryVecInto(dst []float64, subject, predicate int64) {
	srow := m.subject.Row(int(subject))
	prow := m.predicate.Row(int(predicate))
	if m.core == nil {
		for r := range dst {
			dst[r] = m.lambda[r] * srow[r] * prow[r]
		}
		return
	}
	d := m.core.Dims()
	for j := range dst {
		var sum float64
		for a := int64(0); a < d[0]; a++ {
			sv := srow[a]
			for c := int64(0); c < d[2]; c++ {
				sum += m.core.At(a, int64(j), c) * sv * prow[c]
			}
		}
		dst[j] = sum
	}
}

// validQuery reports whether the query coordinates are inside the
// model's vocabulary.
func (m *Model) validQuery(subject, predicate int64) error {
	if subject < 0 || subject >= int64(m.subject.Rows) {
		return fmt.Errorf("serve: subject %d out of range [0, %d)", subject, m.subject.Rows)
	}
	if predicate < 0 || predicate >= int64(m.predicate.Rows) {
		return fmt.Errorf("serve: predicate %d out of range [0, %d)", predicate, m.predicate.Rows)
	}
	return nil
}

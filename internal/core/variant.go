package core

import "fmt"

// Variant selects which HaTen2 job plan executes the bottleneck
// contraction (Table II of the paper).
type Variant int

const (
	// Naive runs one broadcast-style job per n-mode vector product —
	// the straightforward port of MET/Tensor-Toolbox to MapReduce
	// (Algorithms 3 and 4). Intermediate data: nnz(𝒳)+IJK.
	Naive Variant = iota
	// DNN decouples each product into an n-mode vector Hadamard product
	// followed by Collapse (Algorithms 5 and 6).
	DNN
	// DRN removes the dependency between the two factor-matrix products
	// by merging with CrossMerge/PairwiseMerge (Algorithms 7 and 8).
	DRN
	// DRI additionally integrates all Hadamard products into the single
	// IMHP job; the whole contraction takes exactly two jobs
	// (Algorithms 9 and 10). This is "just HaTen2", the recommended
	// method.
	DRI
)

// Variants lists all job plans in increasing refinement order.
var Variants = []Variant{Naive, DNN, DRN, DRI}

// String returns the paper's name for the variant.
func (v Variant) String() string {
	switch v {
	case Naive:
		return "Naive"
	case DNN:
		return "DNN"
	case DRN:
		return "DRN"
	case DRI:
		return "DRI"
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// ParseVariant converts a name (case-sensitive, as printed by String)
// back to a Variant.
func ParseVariant(s string) (Variant, error) {
	for _, v := range Variants {
		if v.String() == s {
			return v, nil
		}
	}
	return 0, fmt.Errorf("core: unknown variant %q (want Naive, DNN, DRN, or DRI)", s)
}

// ErrOrder is the error a decomposition or contraction returns, before
// anything is staged, when its plan does not run at the tensor's order.
type ErrOrder struct {
	Plan  Variant
	Order int
}

func (e *ErrOrder) Error() string {
	return fmt.Sprintf("core: the %v plan supports 3-way tensors only, got order %d", e.Plan, e.Order)
}

// planRuns returns *ErrOrder unless plan v runs at the given tensor
// order: Naive and DNN are 3-way plans.
func planRuns(v Variant, order int) error {
	if (v == Naive || v == DNN) && order != 3 {
		return &ErrOrder{Plan: v, Order: order}
	}
	return nil
}

// Features reports which of the paper's three ideas a variant applies —
// the rows of Table II.
type Features struct {
	Distributed       bool // all HaTen2 variants run on the cluster
	DecoupledSteps    bool // §III-B2: Hadamard-and-Merge
	RemovedDependency bool // §III-B3: CrossMerge/PairwiseMerge
	IntegratedJobs    bool // §III-B4: IMHP
}

// Features returns the variant's row of Table II.
func (v Variant) Features() Features {
	return Features{
		Distributed:       true,
		DecoupledSteps:    v >= DNN,
		RemovedDependency: v >= DRN,
		IntegratedJobs:    v >= DRI,
	}
}

// TuckerJobs returns the number of MapReduce jobs the variant needs for
// one Tucker contraction 𝒳 ×₂Bᵀ ×₃Cᵀ with core sizes Q and R — the
// "Total Jobs" column of Table III.
func (v Variant) TuckerJobs(q, r int) int {
	switch v {
	case Naive:
		return q + r
	case DNN:
		return q + r + 2
	case DRN:
		return q + r + 1
	default:
		return 2
	}
}

// ParafacJobs returns the number of MapReduce jobs the variant needs for
// one PARAFAC contraction 𝒳₍₁₎(C⊙B) with rank R — the "Total Jobs"
// column of Table IV.
func (v Variant) ParafacJobs(r int) int {
	switch v {
	case Naive:
		return 2 * r
	case DNN:
		return 4 * r
	case DRN:
		return 2*r + 1
	default:
		return 2
	}
}

// TuckerIntermediate returns the analytic "Max. Intermediate Data"
// column of Table III in records, given the tensor statistics.
func (v Variant) TuckerIntermediate(nnz, i, j, k int64, q, r int) int64 {
	switch v {
	case Naive:
		return nnz + i*j*k
	case DNN:
		return nnz * int64(q) * int64(r)
	default: // DRN and DRI share the nnz(Q+R) bound
		return nnz * int64(q+r)
	}
}

// ParafacIntermediate returns the analytic "Max. Intermediate Data"
// column of Table IV in records.
func (v Variant) ParafacIntermediate(nnz, i, j, k int64, r int) int64 {
	switch v {
	case Naive:
		return nnz + i*j*k
	case DNN:
		return nnz + j
	default: // DRN and DRI share the 2·nnz·R bound
		return 2 * nnz * int64(r)
	}
}

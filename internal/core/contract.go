package core

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"github.com/haten2/haten2/internal/matrix"
	"github.com/haten2/haten2/internal/mr"
)

// tmpName names a temporary DFS file. The sequence number comes from
// the cluster, not a process global, so the file names — and with them
// the job names and the exported traces — of a run on a fresh cluster
// are reproducible no matter what ran earlier in the process.
func tmpName(c *mr.Cluster, base, kind string) string {
	return fmt.Sprintf("%s.tmp%d.%s", base, c.NextTmp(), kind)
}

// TuckerContract computes the Tucker-ALS bottleneck
//
//	𝒴 ← 𝒳 ×_{m1} U1ᵀ ×_{m2} U2ᵀ
//
// for the factor update of mode n of a 3-way tensor (lines 3, 5, 7 of
// Algorithm 2), where m1 < m2 are the other two modes and
// U1 ∈ ℝ^{I_{m1}×Q1}, U2 ∈ ℝ^{I_{m2}×Q2} are their current factors. The
// entries of the I_n×Q1×Q2 result are returned; the plan (and therefore
// the job count and intermediate data) is chosen by the variant.
func TuckerContract(s *Staged, n int, u1, u2 *matrix.Matrix, v Variant) ([]YEntry, error) {
	return s.contract(n, []*matrix.Matrix{u1, u2}, v, crossMerge)
}

// ParafacContract computes the PARAFAC-ALS bottleneck
//
//	𝒴 ← 𝒳₍ₙ₎ (U2 ⊙ U1)
//
// for the factor update of mode n of a 3-way tensor (lines 3, 5, 7 of
// Algorithm 1), where U1, U2 are the factors of the other two modes
// (both with R columns; U2 is the later mode, matching the Khatri-Rao
// order C⊙B for n=0). The I_n×R result is returned as a dense matrix.
func ParafacContract(s *Staged, n int, u1, u2 *matrix.Matrix, v Variant) (*matrix.Matrix, error) {
	ys, err := s.contract(n, []*matrix.Matrix{u1, u2}, v, pairwiseMerge)
	if err != nil {
		return nil, err
	}
	return kruskalProduct(ys, int(s.Dims[n]), u1.Cols), nil
}

// kruskalProduct assembles a PairwiseMerge result into the dense I_n×R
// matrix 𝒳₍ₙ₎(⊙ factors).
func kruskalProduct(ys []YEntry, rows, rank int) *matrix.Matrix {
	m := matrix.New(rows, rank)
	for _, y := range ys {
		m.Set(int(y.I), int(y.R), m.At(int(y.I), int(y.R))+y.Val)
	}
	return m
}

// contract runs one mode-n bottleneck contraction of the staged tensor
// against factors — one matrix per other mode, in ascending mode order —
// finishing with op: CrossMerge yields Tucker's 𝒳 ×ₘ Uₘᵀ chain,
// PairwiseMerge PARAFAC's matricized Khatri-Rao product. Tensors of any
// supported order run the DRN and DRI plans; Naive and DNN are 3-way.
func (s *Staged) contract(n int, factors []*matrix.Matrix, v Variant, op mergeOp) ([]YEntry, error) {
	order := len(s.Dims)
	if n < 0 || n >= order {
		return nil, fmt.Errorf("core: mode %d out of range for an order-%d tensor", n, order)
	}
	modes := others(order, n)
	if len(factors) != len(modes) {
		return nil, fmt.Errorf("core: mode-%d contraction of an order-%d tensor takes %d factors, got %d", n, order, len(modes), len(factors))
	}
	cols := make([]int32, len(factors))
	flat := int64(1) // CrossMerge's result columns, flattened (see YEntry)
	for i, f := range factors {
		if int64(f.Rows) != s.Dims[modes[i]] {
			return nil, fmt.Errorf("core: factor of mode %d is %dx%d, tensor dims are %v", modes[i], f.Rows, f.Cols, s.Dims)
		}
		if op == pairwiseMerge && f.Cols != factors[0].Cols {
			return nil, fmt.Errorf("core: PARAFAC rank mismatch %d vs %d", factors[0].Cols, f.Cols)
		}
		cols[i] = int32(f.Cols)
		if flat *= int64(f.Cols); op == crossMerge && flat > math.MaxInt32 {
			return nil, fmt.Errorf("core: the factors' %v columns cross to more than the %d a result index holds", cols[:i+1], math.MaxInt32)
		}
	}
	switch v {
	case Naive, DNN:
		if order != 3 {
			return nil, fmt.Errorf("core: the %v plan supports 3-way tensors only, got order %d", v, order)
		}
		if v == Naive {
			return s.naive(n, factors[0], factors[1], op)
		}
		return s.dnn(n, factors[0], factors[1], op)
	case DRN, DRI:
		if order == 3 {
			return mergePlan(stack3, s, n, modes, factors, cols, v, op)
		}
		return mergePlan(stack4, s, n, modes, factors, cols, v, op)
	}
	return nil, fmt.Errorf("core: unknown variant %v", v)
}

// planSpan opens the "plan" span of one contraction, named like
// "tucker-dri".
func (s *Staged) planSpan(v Variant, op mergeOp) func() {
	tr := s.cluster.Tracer()
	id := tr.Begin("plan", mergeLabels[op].method+"-"+strings.ToLower(v.String()))
	return func() { tr.End(id) }
}

// colGroup is one round of a Naive or DNN plan: the columns lo1..hi1 of
// U1 are contracted first, then lo2..hi2 of U2 against the result, and
// suffix distinguishes the round's intermediate files.
type colGroup struct {
	lo1, hi1, lo2, hi2 int
	suffix             string
}

// groups is what the merge operator means to the plans that have no
// merge job: CrossMerge pairs every column of U1 with every column of
// U2, so one round covers both factors whole; PairwiseMerge pairs equal
// columns only, so every component r is a round of its own.
func (op mergeOp) groups(q1, q2 int) []colGroup {
	if op == crossMerge {
		return []colGroup{{0, q1, 0, q2, ""}}
	}
	gs := make([]colGroup, q1)
	for r := range gs {
		gs[r] = colGroup{r, r + 1, r, r + 1, strconv.Itoa(r)}
	}
	return gs
}

// naive is Algorithms 3 and 4. Per round, one broadcast job per column
// of U1 builds 𝒯 = 𝒳 ×_{m1} U1ᵀ a column at a time, then one per column
// of U2 contracts 𝒯 with it: Q1+Q2 jobs for Tucker, 2R for PARAFAC.
func (s *Staged) naive(n int, u1, u2 *matrix.Matrix, op mergeOp) ([]YEntry, error) {
	defer s.planSpan(Naive, op)()
	m1, m2 := otherModes(n)
	fibers1, err := s.fiberKeys(m1)
	if err != nil {
		return nil, err
	}
	dims := [3]int64(s.Dims)
	tDims := dims
	tDims[m1] = int64(u1.Cols)
	vecFile := tmpName(s.cluster, s.Name, "vec")
	tmp := []string{vecFile}
	defer func() { s.cleanup(tmp) }()
	a, b := otherModes(m2)
	var ys []YEntry
	for _, g := range op.groups(u1.Cols, u2.Cols) {
		var tFiles []string
		var tEntries []Entry
		for q := g.lo1; q < g.hi1; q++ {
			if err := stageColumn(s.cluster, vecFile, u1, q); err != nil {
				return nil, err
			}
			tf := tmpName(s.cluster, s.Name, fmt.Sprintf("T%d", q))
			tFiles, tmp = append(tFiles, tf), append(tmp, tf)
			out, err := naiveContract(s.cluster, []string{s.Name}, dims, m1, vecFile, int64(u1.Rows), int64(q), fibers1, tf)
			if err != nil {
				return nil, err
			}
			tEntries = append(tEntries, out...)
		}
		// Fibers of 𝒯 for the second round of broadcasts.
		fibers2 := distinctPairs(tEntries, a, b)
		for r := g.lo2; r < g.hi2; r++ {
			if err := stageColumn(s.cluster, vecFile, u2, r); err != nil {
				return nil, err
			}
			yf := tmpName(s.cluster, s.Name, fmt.Sprintf("Y%d", r))
			tmp = append(tmp, yf)
			out, err := naiveContract(s.cluster, tFiles, tDims, m2, vecFile, int64(u2.Rows), int64(r), fibers2, yf)
			if err != nil {
				return nil, err
			}
			for _, e := range out {
				ys = append(ys, YEntry{I: e.Idx[n], Q: int32(e.Idx[m1]), R: int32(e.Idx[m2]), Val: e.Val})
			}
		}
	}
	return ys, nil
}

// dnn is Algorithms 5 and 6. Per round, one Hadamard job per column of
// U1 and a Collapse build 𝒯, then one Hadamard job per column of U2 and
// a Collapse build 𝒴: Q1+Q2+2 jobs and nnz·Q1·Q2 max intermediate (the
// second Collapse input) for Tucker, 4R jobs and nnz+J for PARAFAC.
func (s *Staged) dnn(n int, u1, u2 *matrix.Matrix, op mergeOp) ([]YEntry, error) {
	defer s.planSpan(DNN, op)()
	m1, m2 := otherModes(n)
	c := s.cluster
	vecFile := tmpName(c, s.Name, "vec")
	tmp := []string{vecFile}
	defer func() { s.cleanup(tmp) }()
	// hadamards runs one Hadamard job per column lo..hi of u against
	// inFile and collapses them into outKind's file.
	hadamards := func(inFile string, m int, u *matrix.Matrix, lo, hi int, hKind, outKind string) ([]Entry, string, error) {
		var hFiles []string
		for q := lo; q < hi; q++ {
			if err := stageColumn(c, vecFile, u, q); err != nil {
				return nil, "", err
			}
			hf := tmpName(c, s.Name, hKind+strconv.Itoa(q))
			hFiles, tmp = append(hFiles, hf), append(tmp, hf)
			if err := stack3.hadamardVec(c, inFile, m, int32(q), vecFile, false, hf); err != nil {
				return nil, "", err
			}
		}
		outFile := tmpName(c, s.Name, outKind)
		tmp = append(tmp, outFile)
		out, err := collapse(c, hFiles, m, outFile)
		return out, outFile, err
	}
	var ys []YEntry
	for _, g := range op.groups(u1.Cols, u2.Cols) {
		_, tFile, err := hadamards(s.Name, m1, u1, g.lo1, g.hi1, "H", "T"+g.suffix)
		if err != nil {
			return nil, err
		}
		out, _, err := hadamards(tFile, m2, u2, g.lo2, g.hi2, "H2_", "Y"+g.suffix)
		if err != nil {
			return nil, err
		}
		for _, e := range out {
			ys = append(ys, YEntry{I: e.Idx[n], Q: int32(e.Idx[m1]), R: int32(e.Idx[m2]), Val: e.Val})
		}
	}
	return ys, nil
}

// mergePlan is Algorithms 7–10: build the Hadamard intermediates 𝒯′ and
// 𝒯″ directly from 𝒳 — DRN with one independent job per factor column
// (ΣQ+1 jobs), DRI with the single IMHP job (2 jobs) — then merge them
// with op. Max intermediate data is nnz·ΣQ either way.
func mergePlan[I index](k *stack[I], s *Staged, n int, modes []int, factors []*matrix.Matrix, cols []int32, v Variant, op mergeOp) ([]YEntry, error) {
	defer s.planSpan(v, op)()
	build := k.driIMHP
	if v == DRN {
		build = k.drnHadamards
	}
	sideFiles, tmp, err := build(s, modes, factors)
	defer func() { s.cleanup(tmp) }()
	if err != nil {
		return nil, err
	}
	tr := s.cluster.Tracer()
	defer tr.End(tr.Begin("stage", mergeLabels[op].stage))
	return k.merge(s.cluster, op, sideFiles, cols, n)
}

// drnHadamards runs the DRN variants' independent per-column Hadamard
// jobs: 𝒯′_q = 𝒳 ∗̄_{m₀} u_q for every column of the first factor and
// 𝒯″_r = bin(𝒳) ∗̄_{mₛ} u_r for every column of each further one. It
// returns the files per side and every temporary it created.
func (k *stack[I]) drnHadamards(s *Staged, modes []int, factors []*matrix.Matrix) (sideFiles [][]string, tmp []string, err error) {
	tr := s.cluster.Tracer()
	defer tr.End(tr.Begin("stage", "hadamards"))
	vecFile := tmpName(s.cluster, s.Name, "vec")
	tmp = []string{vecFile}
	sideFiles = make([][]string, len(modes))
	for side, u := range factors {
		for q := 0; q < u.Cols; q++ {
			if err = stageColumn(s.cluster, vecFile, u, q); err != nil {
				return
			}
			tf := tmpName(s.cluster, s.Name, fmt.Sprintf("T%d_%d", side+1, q))
			sideFiles[side], tmp = append(sideFiles[side], tf), append(tmp, tf)
			if err = k.hadamardVec(s.cluster, s.Name, modes[side], int32(q), vecFile, side > 0, tf); err != nil {
				return
			}
		}
	}
	return
}

// driIMHP stages the factor matrices and runs the single integrated
// IMHP job, returning one 𝒯 file per side and every temporary it
// created.
func (k *stack[I]) driIMHP(s *Staged, modes []int, factors []*matrix.Matrix) (sideFiles [][]string, tmp []string, err error) {
	tr := s.cluster.Tracer()
	sf := tr.Begin("stage", "stage-factors")
	matFiles := make([]string, len(factors))
	for side := range factors {
		// B, C, …: the paper's names for the multiplied factors.
		matFiles[side] = tmpName(s.cluster, s.Name, string(rune('B'+side)))
	}
	tmp = append(tmp, matFiles...)
	for side, u := range factors {
		if err = stageMatrix(s.cluster, matFiles[side], u); err != nil {
			tr.End(sf)
			return
		}
	}
	tr.End(sf)
	defer tr.End(tr.Begin("stage", "imhp"))
	outFiles := make([]string, len(factors))
	sideFiles = make([][]string, len(factors))
	for side := range factors {
		outFiles[side] = tmpName(s.cluster, s.Name, fmt.Sprintf("T%d", side+1))
		sideFiles[side] = outFiles[side : side+1]
	}
	tmp = append(tmp, outFiles...)
	err = k.imhp(s.cluster, s.Name, modes, matFiles, outFiles)
	return
}

package core

import (
	"fmt"
	"math/bits"
	"sync"

	"github.com/haten2/haten2/internal/mr"
)

// stack is the job family instantiated at one tensor order: what a job
// needs that depends on the coordinate width. Shuffle keys are
// [3]int64 at every order — (a, b, c) for the 3-way-only Naive and DNN
// jobs, (a, b, 0) for the Hadamard, IMHP and merge jobs of DRN and DRI.
type stack[I index] struct {
	// codec is the columnar shuffle block codec every job of the order
	// shares (one value, so jobs allocate nothing for accounting).
	codec *mr.BlockCodec[[3]int64, sval[I]]
	// scratch recycles the per-call state of the plan reducers (see
	// scratch): they run once per distinct key — millions of calls per
	// ALS iteration — so anything allocated per call dominates a plan's
	// allocation profile.
	scratch sync.Pool
	// partition routes a shuffle key to its reducer, and sideBase is the
	// first IMHP side key. Routing feeds output order and therefore the
	// floating-point summation order of everything downstream, so each
	// order keeps the routing its outputs were pinned with: order 3
	// hashes the whole key with sides numbered from 1, order 4 hashes
	// the (a, b) pair — its keys never use c — with sides from 0.
	partition func([3]int64) uint64
	sideBase  int64
}

func newStack[I index](partition func([3]int64) uint64, sideBase int64) *stack[I] {
	return &stack[I]{
		codec:     &mr.BlockCodec[[3]int64, sval[I]]{Size: svalSize[I], Append: appendSValBlock[I], Decode: decodeSValBlock[I]},
		scratch:   sync.Pool{New: func() any { return new(scratch[I]) }},
		partition: partition,
		sideBase:  sideBase,
	}
}

// cv is one cell of a Hadamard intermediate within a key group: its
// factor column and value.
type cv struct {
	col int32
	val float64
}

// scratch is the pooled state of one reduce call. Both merge reducers
// match a key's records across sides on their original coordinate, so
// they share the matcher — an open-addressed coordinate → slot table
// (linear probing, entries hold slot+1) with slots assigned in
// first-seen order and each value's slot memoized — and differ only in
// what they keep per slot: CrossMerge per-side cell runs, laid out by
// count → prefix sum → scatter in arrival order and crossed into a
// dense accumulator; PairwiseMerge one running sum per 𝒯″ side.
type scratch[I index] struct {
	table  []int32
	coords []I     // slot → coordinate
	pos    []int32 // slot → its table index, so match clears O(slots) entries
	slot   []int32 // value → slot
	// CrossMerge. next is indexed slot·sides+side: a run's cell count,
	// then its scatter cursor, finally its end offset in cells.
	next      []int32
	cells     []cv
	order     []int32 // slots in 𝒯′-first-seen order
	left, tmp []cv    // 𝒯′ crossed with every side but the last
	acc       []float64
	seen      []bool  // acc and seen are all-zero between calls
	touched   []int32 // accumulator cells in first-seen order
	// PairwiseMerge: indexed slot·(sides-1)+(side-1).
	sums []float64
	// IMHP: the reducer's factor row.
	row []MatEntry
}

// match empties the matcher of the previous call, resolves every
// value's coordinate to its slot (s.slot) and returns the number of
// distinct coordinates. The table is kept at most ½ full of the values
// themselves, so it never grows mid-match.
func (s *scratch[I]) match(vals []sval[I]) int {
	for _, p := range s.pos {
		s.table[p] = 0
	}
	if 2*len(vals) > len(s.table) {
		s.table = make([]int32, 1<<bits.Len(uint(2*len(vals))))
	}
	s.coords, s.pos, s.slot = s.coords[:0], s.pos[:0], s.slot[:0]
	var sl int32
	for i := range vals {
		idx := vals[i].idx
		// Records of one coordinate tend to arrive together (IMHP emits
		// a tensor entry's columns back to back).
		if i == 0 || idx != vals[i-1].idx {
			sl = s.lookup(idx)
		}
		s.slot = append(s.slot, sl)
	}
	return len(s.coords)
}

func hashIndex[I index](idx I) uint64 {
	var h uint64
	for m := 0; m < len(idx); m++ {
		h = (h ^ uint64(idx[m])) * 0x9E3779B97F4A7C15
	}
	h ^= h >> 32
	return h * 0xBF58476D1CE4E5B9
}

// lookup returns idx's slot, assigning the next one on first sight.
func (s *scratch[I]) lookup(idx I) int32 {
	mask := uint64(len(s.table) - 1)
	p := hashIndex(idx) >> 20 & mask
	for t := s.table[p]; t != 0; t = s.table[p] {
		if s.coords[t-1] == idx {
			return t - 1
		}
		p = (p + 1) & mask
	}
	s.coords, s.pos = append(s.coords, idx), append(s.pos, int32(p))
	s.table[p] = int32(len(s.coords))
	return int32(len(s.coords)) - 1
}

// zeroed returns s resized to n zero elements, reusing its storage.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// sval3 is the shuffle value of the 3-way-only Naive and DNN jobs.
type sval3 = sval[[3]int64]

var (
	stack3 = newStack[[3]int64](mr.HashTriple, 1)
	stack4 = newStack[[4]int64](func(k [3]int64) uint64 { return mr.HashPair([2]int64{k[0], k[1]}) }, 0)
)

// naiveContract is the HaTen2-Naive building block: one n-mode vector
// product 𝒳 ×̄_m v as a single broadcast-style MapReduce job (the inner
// loop of Algorithms 3 and 4). Tensor entries are shuffled on their
// fiber key (the coordinates of the modes ≠ m), and the factor vector is
// copied to every fiber key — the paper's nnz(𝒳)+IJK intermediate-data
// blow-up. The simulator materializes vector copies only for fibers that
// actually exist and charges the remainder via ExtraShuffleRecords, so
// cost accounting (and resource exhaustion) matches the faithful plan.
//
// The result entries are written to outFile with outIdx in mode m's
// position, so Q single-column results assemble into the 3-way
// intermediate 𝒯 without a separate job.
func naiveContract(c *mr.Cluster, inFiles []string, dims [3]int64, m int, vecFile string, vecLen int64, outIdx int64, fibers [][2]int64, outFile string) ([]Entry, error) {
	m1, m2 := otherModes(m)
	// Faithful plan: the vector is copied to all dims[m1]·dims[m2] fiber
	// keys; we emit len(fibers)·vecLen of those copies for real.
	phantomKeys := dims[m1]*dims[m2] - int64(len(fibers))
	if phantomKeys < 0 {
		phantomKeys = 0
	}
	inputs := make([]mr.Input[[3]int64, sval3], 0, len(inFiles)+1)
	for _, f := range inFiles {
		inputs = append(inputs, mr.MapInput(f, func(e Entry, emit func([3]int64, sval3)) {
			emit([3]int64{e.Idx[m1], e.Idx[m2], 0}, sval3{tag: tagTensor, idx: e.Idx, val: e.Val})
		}))
	}
	inputs = append(inputs, mr.MapInput(vecFile, func(cell MatEntry, emit func([3]int64, sval3)) {
		for _, f := range fibers {
			emit([3]int64{f[0], f[1], 0}, sval3{tag: tagMat, idx: [3]int64{cell.Row, 0, 0}, val: cell.Val})
		}
	}))
	out, _, err := mr.Run(c, mr.Job[[3]int64, sval3, Entry]{
		Name:   fmt.Sprintf("naive-contract(mode=%d)", m),
		Inputs: inputs,
		Reduce: func(key [3]int64, vals []sval3, emit func(Entry)) {
			// Inner product of the mode-m fiber with the vector.
			vec := make(map[int64]float64)
			for _, v := range vals {
				if v.tag == tagMat {
					vec[v.idx[0]] = v.val
				}
			}
			var sum float64
			for _, v := range vals {
				if v.tag == tagTensor {
					sum += v.val * vec[v.idx[m]]
				}
			}
			if sum == 0 {
				return
			}
			var idx [3]int64
			idx[m1], idx[m2], idx[m] = key[0], key[1], outIdx
			emit(Entry{Idx: idx, Val: sum})
		},
		Partition:           stack3.partition,
		BlockKV:             stack3.codec,
		OutSize:             entrySize[[3]int64],
		Outputs:             []string{outFile},
		ExtraShuffleRecords: phantomKeys * vecLen,
		// Phantom copies are never materialized, so they have no real
		// encoding; they are priced at the fixed MatEntry width (only
		// genuinely encoded records get codec-priced).
		ExtraShuffleBytes: phantomKeys * vecLen * matEntryBytes,
	})
	return out, err
}

// hadamardVec is the decoupled multiplication step of Hadamard-and-Merge
// (§III-B2): 𝒳 ∗̄_m v as one job. Tensor entries are shuffled on their
// mode-m coordinate alone — nnz(𝒳)+len(v) intermediate records instead
// of the Naive broadcast — and each is multiplied by the matching vector
// element. With bin set, tensor values are replaced by 1 first
// (bin(𝒳) ∗̄_m v, the 𝒯″ side of Lemmas 1 and 2).
// The result is an HEntry file carrying colIdx as the new mode.
func (k *stack[I]) hadamardVec(c *mr.Cluster, inFile string, m int, colIdx int32, vecFile string, bin bool, outFile string) error {
	_, _, err := mr.Run(c, mr.Job[[3]int64, sval[I], HEntryOf[I]]{
		Name: fmt.Sprintf("hadamard(%s,mode=%d,col=%d)", inFile, m, colIdx),
		Inputs: []mr.Input[[3]int64, sval[I]]{
			mr.MapInput(inFile, func(e EntryOf[I], emit func([3]int64, sval[I])) {
				v := e.Val
				if bin {
					v = 1
				}
				emit([3]int64{e.Idx[m], 0, 0}, sval[I]{tag: tagTensor, idx: e.Idx, val: v})
			}),
			mr.MapInput(vecFile, func(cell MatEntry, emit func([3]int64, sval[I])) {
				emit([3]int64{cell.Row, 0, 0}, sval[I]{tag: tagMat, val: cell.Val})
			}),
		},
		Reduce: func(key [3]int64, vals []sval[I], emit func(HEntryOf[I])) {
			var vec float64
			for _, v := range vals {
				if v.tag == tagMat {
					vec = v.val
				}
			}
			if vec == 0 {
				return
			}
			for _, v := range vals {
				if v.tag == tagTensor {
					emit(HEntryOf[I]{Idx: v.idx, Col: colIdx, Val: v.val * vec})
				}
			}
		},
		Partition: k.partition,
		BlockKV:   k.codec,
		OutSize:   hEntrySize[I],
		Outputs:   []string{outFile},
	})
	return err
}

// collapse is the merge step of Hadamard-and-Merge (Definition 2):
// Collapse(𝒯′)_m sums the HEntry inputs across mode m, grouping on the
// remaining coordinates plus the Hadamard column. The column index takes
// mode m's place in the output, so Collapse(𝒳 ∗₂ Bᵀ)₂ yields the 3-way
// 𝒯 = 𝒳 ×₂ Bᵀ directly.
func collapse(c *mr.Cluster, inFiles []string, m int, outFile string) ([]Entry, error) {
	m1, m2 := otherModes(m)
	inputs := make([]mr.Input[[3]int64, sval3], len(inFiles))
	for i, f := range inFiles {
		inputs[i] = mr.MapInput(f, func(h HEntry, emit func([3]int64, sval3)) {
			emit([3]int64{h.Idx[m1], h.Idx[m2], int64(h.Col)}, sval3{tag: tagTensor, val: h.Val})
		})
	}
	out, _, err := mr.Run(c, mr.Job[[3]int64, sval3, Entry]{
		Name:   fmt.Sprintf("collapse(mode=%d)", m),
		Inputs: inputs,
		Reduce: func(key [3]int64, vals []sval3, emit func(Entry)) {
			var sum float64
			for _, v := range vals {
				sum += v.val
			}
			if sum == 0 {
				return
			}
			var idx [3]int64
			idx[m1], idx[m2], idx[m] = key[0], key[1], key[2]
			emit(Entry{Idx: idx, Val: sum})
		},
		Partition: stack3.partition,
		BlockKV:   stack3.codec,
		OutSize:   entrySize[[3]int64],
		Outputs:   []string{outFile},
	})
	return out, err
}

// imhp is HaTen2-DRI's integrated job (§III-B4): it computes
// 𝒯′ = 𝒳 ∗_{m₀} U₀ᵀ and 𝒯″ₛ = bin(𝒳) ∗_{mₛ} Uₛᵀ for every further
// multiplied mode in a single MapReduce job that reads 𝒳 from the DFS
// once. The mapper emits every tensor entry once per side, keyed by
// (side, that mode's coordinate); reducers hold one factor row — O(Q)
// extra memory, the deliberate memory-for-jobs trade the paper makes —
// and multiply it against their fiber. modes lists the multiplied modes
// and matFiles their staged factors; the reducers write the result
// tensors one per side to outFiles through the engine's MultipleOutputs,
// as the Hadoop implementation does.
func (k *stack[I]) imhp(c *mr.Cluster, xFile string, modes []int, matFiles, outFiles []string) error {
	inputs := []mr.Input[[3]int64, sval[I]]{
		mr.MapInput(xFile, func(e EntryOf[I], emit func([3]int64, sval[I])) {
			v := e.Val
			for s, m := range modes {
				emit([3]int64{k.sideBase + int64(s), e.Idx[m], 0}, sval[I]{tag: tagT1 + uint8(s), idx: e.Idx, val: v})
				v = 1 // bin(𝒳) for all but the first side
			}
		}),
	}
	for s, f := range matFiles {
		side := k.sideBase + int64(s)
		inputs = append(inputs, mr.MapInput(f, func(cell MatEntry, emit func([3]int64, sval[I])) {
			emit([3]int64{side, cell.Row, 0}, sval[I]{tag: tagMat, col: cell.Col, val: cell.Val})
		}))
	}
	name := "imhp(" + xFile
	for _, m := range modes {
		name += fmt.Sprintf(",%d", m)
	}
	_, _, err := mr.Run(c, mr.Job[[3]int64, sval[I], HEntryOf[I]]{
		Name:       name + ")",
		Inputs:     inputs,
		Reduce:     k.imhpReduce,
		Partition:  k.partition,
		BlockKV:    k.codec,
		OutSize:    hEntrySize[I],
		Outputs:    outFiles,
		OutputPart: func(key [3]int64) int { return int(key[0] - k.sideBase) },
	})
	return err
}

// imhpReduce multiplies one factor row against the fiber that shares
// its key: O(Q) memory per reducer (vs. O(1) for the per-column DRN
// jobs — the trade §III-B4 argues is cheap). The key names the side, so
// the records carry none.
func (k *stack[I]) imhpReduce(key [3]int64, vals []sval[I], emit func(HEntryOf[I])) {
	s := k.scratch.Get().(*scratch[I])
	defer k.scratch.Put(s)
	row := s.row[:0]
	for _, v := range vals {
		if v.tag == tagMat && v.val != 0 {
			row = append(row, MatEntry{Col: v.col, Val: v.val})
		}
	}
	s.row = row
	for _, v := range vals {
		if v.tag == tagMat {
			continue
		}
		for _, cell := range row {
			emit(HEntryOf[I]{Idx: v.idx, Col: cell.Col, Val: v.val * cell.Val})
		}
	}
}

// mergeOp is the final merge of the DRN and DRI plans — the one
// operator in which the paper's two decompositions differ — and, for
// the Naive and DNN plans, the column pairing that operator stands for.
type mergeOp uint8

const (
	// crossMerge is CrossMerge(𝒯′, 𝒯″)₍ₙ₎ (Definition 3), Tucker's merge:
	// 𝒴(i,q,r) = Σ_{j,k} 𝒯′(i,j,k,q)·𝒯″(i,j,k,r), every column of one
	// factor against every column of the other. Both intermediates are
	// shuffled on their mode-n coordinate — nnz(𝒳)(Q+R) records, the
	// Table III bound — and each reducer holds one tensor slice
	// (nnz(𝒳ᵢ::)(Q+R) memory) and forms all Q·R combinations locally.
	crossMerge mergeOp = iota
	// pairwiseMerge is PairwiseMerge(𝒯′, 𝒯″)₍ₙ₎ (Definition 4),
	// PARAFAC's merge: 𝒴(i,r) = Σ_{j,k} 𝒯′(i,j,k,r)·𝒯″(i,j,k,r), equal
	// columns only. Records are shuffled on (mode-n coordinate, r) —
	// 2·nnz(𝒳)·R records, the Table IV bound — and reducers pair the
	// sides on their original coordinate.
	pairwiseMerge
)

// mergeLabels names each operator in plan spans, stage spans and jobs.
var mergeLabels = [...]struct{ method, stage, job string }{
	crossMerge:    {"tucker", "cross-merge", "crossmerge"},
	pairwiseMerge: {"parafac", "pairwise-merge", "pairwisemerge"},
}

// merge runs op over the Hadamard intermediates of one mode-n update:
// sideFiles[s] holds the files of side s (𝒯′ first) and cols[s] its
// factor's column count (CrossMerge flattens column indexes by them,
// see YEntry).
func (k *stack[I]) merge(c *mr.Cluster, op mergeOp, sideFiles [][]string, cols []int32, n int) ([]YEntry, error) {
	// CrossMerge reducers need each record's column; PairwiseMerge puts
	// it in the key instead.
	mapSide := func(tag uint8) func(HEntryOf[I], func([3]int64, sval[I])) {
		return func(h HEntryOf[I], emit func([3]int64, sval[I])) {
			emit([3]int64{h.Idx[n], 0, 0}, sval[I]{tag: tag, idx: h.Idx, col: h.Col, val: h.Val})
		}
	}
	reduce := k.crossReduce(cols)
	if op == pairwiseMerge {
		mapSide = func(tag uint8) func(HEntryOf[I], func([3]int64, sval[I])) {
			return func(h HEntryOf[I], emit func([3]int64, sval[I])) {
				emit([3]int64{h.Idx[n], int64(h.Col), 0}, sval[I]{tag: tag, idx: h.Idx, val: h.Val})
			}
		}
		reduce = k.pairwiseReduce(len(sideFiles))
	}
	var inputs []mr.Input[[3]int64, sval[I]]
	for s, files := range sideFiles {
		for _, f := range files {
			inputs = append(inputs, mr.MapInput(f, mapSide(tagT1+uint8(s))))
		}
	}
	out, _, err := mr.Run(c, mr.Job[[3]int64, sval[I], YEntry]{
		Name:      fmt.Sprintf("%s(mode=%d)", mergeLabels[op].job, n),
		Inputs:    inputs,
		Reduce:    reduce,
		Partition: k.partition,
		BlockKV:   k.codec,
		OutSize:   yEntrySize,
	})
	return out, err
}

// crossReduce matches the sides' records on their original coordinate,
// then crosses their columns. Coordinates are walked in 𝒯′-first-seen
// order and (q, r) cells emitted in first-seen order (vals order is
// fixed by the engine), so each cell's floating-point summation order —
// and the emission order — is identical on every run.
func (k *stack[I]) crossReduce(cols []int32) func([3]int64, []sval[I], func(YEntry)) {
	sides := int32(len(cols))
	last := cols[sides-1]
	width := int(last) // the accumulator: one row of Y₍ₙ₎, flat·last cells
	for _, c := range cols[:sides-1] {
		width *= int(c)
	}
	return func(key [3]int64, vals []sval[I], emit func(YEntry)) {
		s := k.scratch.Get().(*scratch[I])
		defer k.scratch.Put(s)
		s.next = zeroed(s.next, s.match(vals)*int(sides))
		order := s.order[:0]
		for i, v := range vals {
			o := s.slot[i]*sides + int32(v.tag-tagT1)
			if v.tag == tagT1 && s.next[o] == 0 {
				order = append(order, s.slot[i])
			}
			s.next[o]++
		}
		s.order = order
		total := int32(0)
		for o, n := range s.next {
			s.next[o] = total
			total += n
		}
		if cap(s.cells) < len(vals) {
			s.cells = make([]cv, len(vals))
		}
		cells := s.cells[:len(vals)]
		for i, v := range vals {
			o := s.slot[i]*sides + int32(v.tag-tagT1)
			cells[s.next[o]] = cv{v.col, v.val}
			s.next[o]++
		}
		run := func(o int32) []cv {
			lo := int32(0)
			if o > 0 {
				lo = s.next[o-1]
			}
			return cells[lo:s.next[o]]
		}
		if len(s.acc) < width {
			s.acc, s.seen = make([]float64, width), make([]bool, width)
		}
		touched := s.touched[:0]
	coords:
		for _, sl := range order {
			left := run(sl * sides)
			for side := int32(1); side < sides-1; side++ {
				mid := run(sl*sides + side)
				if len(mid) == 0 {
					continue coords // the coordinate is missing from this side
				}
				s.tmp = s.tmp[:0]
				for _, a := range left {
					for _, b := range mid {
						s.tmp = append(s.tmp, cv{a.col*cols[side] + b.col, a.val * b.val})
					}
				}
				left, s.left, s.tmp = s.tmp, s.tmp, s.left
			}
			rs := run(sl*sides + sides - 1)
			for _, qv := range left {
				for _, rv := range rs {
					c := qv.col*last + rv.col
					if !s.seen[c] {
						s.seen[c] = true
						touched = append(touched, c)
					}
					s.acc[c] += qv.val * rv.val
				}
			}
		}
		s.touched = touched
		for _, c := range touched {
			if v := s.acc[c]; v != 0 {
				emit(YEntry{I: key[0], Q: c / last, R: c % last, Val: v})
			}
			s.acc[c], s.seen[c] = 0, false
		}
	}
}

// pairwiseReduce multiplies, per original coordinate, the 𝒯′ record by
// the sum of every other side's records there, and sums the products in
// 𝒯′ arrival order.
func (k *stack[I]) pairwiseReduce(sides int) func([3]int64, []sval[I], func(YEntry)) {
	w := int32(sides - 1)
	return func(key [3]int64, vals []sval[I], emit func(YEntry)) {
		s := k.scratch.Get().(*scratch[I])
		defer k.scratch.Put(s)
		s.sums = zeroed(s.sums, s.match(vals)*int(w))
		for i, v := range vals {
			if v.tag != tagT1 {
				s.sums[s.slot[i]*w+int32(v.tag-tagT1-1)] += v.val
			}
		}
		var sum float64
		for i, v := range vals {
			if v.tag == tagT1 {
				term := v.val
				for _, side := range s.sums[s.slot[i]*w : (s.slot[i]+1)*w] {
					term *= side
				}
				sum += term
			}
		}
		if sum == 0 {
			return
		}
		r := int32(key[1])
		emit(YEntry{I: key[0], Q: r, R: r, Val: sum})
	}
}

package lint

// A forward dataflow engine over the CFGs of cfg.go. An analysis
// supplies a lattice (the fact domain with its join) and a transfer
// function (the effect of one CFG node on a fact); the solver iterates
// a worklist to the least fixed point and the analysis then replays
// blocks to read the fact in force at each node.
//
// Conventions:
//
//   - Facts are treated as immutable values. A transfer function must
//     never mutate its input fact; the copy-on-write set helpers below
//     make that cheap for the set-shaped domains.
//   - Bottom is the join identity (join(Bottom, x) == x): an unvisited
//     path constrains nothing.
//   - The solver visits only blocks reachable from Entry, so facts on
//     unreachable blocks stay Bottom and analyses skip them via
//     CFG.Reachable.

import "go/ast"

// Fact is one analysis-specific dataflow value.
type Fact any

// Lattice is a fact domain: the join-semilattice the solver iterates
// over. Joins must be commutative, associative, and monotone, and the
// domain must have finite height for termination.
type Lattice interface {
	// Bottom is the join identity, used for unvisited blocks.
	Bottom() Fact
	// Join combines the facts of two control-flow predecessors.
	Join(a, b Fact) Fact
	// Equal reports whether two facts are the same point of the
	// lattice (the solver's convergence test).
	Equal(a, b Fact) bool
}

// Transfer is the effect of one CFG node on a fact: the input fact
// holds before the node, the result after it.
type Transfer func(n ast.Node, f Fact) Fact

// Flow is one dataflow problem.
type Flow struct {
	CFG      *CFG
	Lat      Lattice
	Transfer Transfer
	// Boundary is Entry's incoming fact.
	Boundary Fact
}

// Solution holds the solved per-block facts. In[b] is the fact at the
// block's start, Out[b] at its end.
type Solution struct {
	flow *Flow
	In   map[*Block]Fact
	Out  map[*Block]Fact
}

// Solve runs the worklist algorithm to the least fixed point.
func (f *Flow) Solve() *Solution {
	sol := &Solution{
		flow: f,
		In:   make(map[*Block]Fact, len(f.CFG.Blocks)),
		Out:  make(map[*Block]Fact, len(f.CFG.Blocks)),
	}
	for _, b := range f.CFG.Blocks {
		sol.In[b] = f.Lat.Bottom()
		sol.Out[b] = f.Lat.Bottom()
	}
	queued := make([]bool, len(f.CFG.Blocks))
	var list []*Block
	push := func(b *Block) {
		if !queued[b.Index] {
			queued[b.Index] = true
			list = append(list, b)
		}
	}
	// Seed every block reachable from Entry (out-facts equal to Bottom
	// would otherwise never schedule their successors), but only those:
	// facts must not leak out of unreachable code.
	for _, b := range f.CFG.Reachable() {
		push(b)
	}
	// The domains are finite-height and transfers monotone, so the
	// fixpoint arrives long before the cap; the cap only bounds a
	// misbehaving analysis instead of hanging the build.
	maxSteps := 256 * (len(f.CFG.Blocks) + 1)
	for steps := 0; len(list) > 0 && steps < maxSteps; steps++ {
		b := list[0]
		list = list[1:]
		queued[b.Index] = false
		acc := f.Lat.Bottom()
		if b == f.CFG.Entry {
			acc = f.Lat.Join(acc, f.Boundary)
		}
		for _, p := range b.Preds {
			acc = f.Lat.Join(acc, sol.Out[p])
		}
		sol.In[b] = acc
		nf := acc
		for _, n := range b.Nodes {
			nf = f.Transfer(n, nf)
		}
		if !f.Lat.Equal(nf, sol.Out[b]) {
			sol.Out[b] = nf
			for _, s := range b.Succs {
				push(s)
			}
		}
	}
	return sol
}

// Replay walks one block in execution order, calling visit with each
// node and the fact holding immediately before it.
func (s *Solution) Replay(b *Block, visit func(n ast.Node, f Fact)) {
	f := s.In[b]
	for _, n := range b.Nodes {
		visit(n, f)
		f = s.flow.Transfer(n, f)
	}
}

// ---- reusable lattices ------------------------------------------------

// SetLattice is the may-analysis powerset lattice over keys of type K:
// facts are map[K]bool sets, Join is union, Bottom the empty set. A
// fact is present when it holds on SOME path.
type SetLattice[K comparable] struct{}

func (SetLattice[K]) Bottom() Fact { return map[K]bool(nil) }

func (SetLattice[K]) Join(a, b Fact) Fact {
	am, bm := a.(map[K]bool), b.(map[K]bool)
	if len(am) == 0 {
		return bm
	}
	if len(bm) == 0 {
		return am
	}
	if setLEQ(bm, am) {
		return am
	}
	m := make(map[K]bool, len(am)+len(bm))
	for k := range am {
		m[k] = true
	}
	for k := range bm {
		m[k] = true
	}
	return m
}

func (SetLattice[K]) Equal(a, b Fact) bool {
	am, bm := a.(map[K]bool), b.(map[K]bool)
	return len(am) == len(bm) && setLEQ(am, bm)
}

// setLEQ reports a ⊆ b.
func setLEQ[K comparable](a, b map[K]bool) bool {
	if len(a) > len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// setAdd returns the set with k added, copying on write.
func setAdd[K comparable](m map[K]bool, k K) map[K]bool {
	if m[k] {
		return m
	}
	out := make(map[K]bool, len(m)+1)
	for key := range m {
		out[key] = true
	}
	out[k] = true
	return out
}

// setDel returns the set with k removed, copying on write.
func setDel[K comparable](m map[K]bool, k K) map[K]bool {
	if !m[k] {
		return m
	}
	out := make(map[K]bool, len(m))
	for key := range m {
		if key != k {
			out[key] = true
		}
	}
	return out
}

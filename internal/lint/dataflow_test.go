package lint

import (
	"go/ast"
	"go/token"
	"testing"
)

// The solver tests run over hand-built CFGs, so they pin the engine's
// contract independently of the statement-level builder: block facts,
// join behavior at merges, loop convergence, and the boundary fact.

// litNode makes a distinguishable CFG node: a BasicLit whose Value is
// the "instruction" the test transfer functions interpret.
func litNode(v string) ast.Node {
	return &ast.BasicLit{Kind: token.STRING, Value: v}
}

// handCFG wires blocks into a CFG. edges[i] lists the successor
// indexes of block i. Block 0 is entry, block 1 exit.
func handCFG(nodes [][]ast.Node, edges [][]int) *CFG {
	cfg := &CFG{}
	for i, ns := range nodes {
		cfg.Blocks = append(cfg.Blocks, &Block{Index: i, Nodes: ns})
	}
	cfg.Entry = cfg.Blocks[0]
	cfg.Exit = cfg.Blocks[1]
	for i, succs := range edges {
		for _, j := range succs {
			from, to := cfg.Blocks[i], cfg.Blocks[j]
			from.Succs = append(from.Succs, to)
			to.Preds = append(to.Preds, from)
		}
	}
	return cfg
}

// genKill interprets "gen X" and "kill X" instructions over a string
// set fact.
func genKill(n ast.Node, f Fact) Fact {
	m := f.(map[string]bool)
	lit, ok := n.(*ast.BasicLit)
	if !ok {
		return m
	}
	switch {
	case len(lit.Value) > 4 && lit.Value[:4] == "gen ":
		return setAdd(m, lit.Value[4:])
	case len(lit.Value) > 5 && lit.Value[:5] == "kill ":
		return setDel(m, lit.Value[5:])
	}
	return m
}

// TestSolveForwardDiamond: a diamond where one arm gens a fact and the
// other kills it; the union join must carry it to the merge.
//
//	0 ── 2(gen x) ──┐
//	 └── 3(kill x) ─┴─ 4 ── 1(exit)
func TestSolveForwardDiamond(t *testing.T) {
	cfg := handCFG(
		[][]ast.Node{
			0: {litNode("gen seed")},
			1: {},
			2: {litNode("gen x")},
			3: {litNode("kill x")},
			4: {},
		},
		[][]int{
			0: {2, 3},
			2: {4},
			3: {4},
			4: {1},
		},
	)
	sol := (&Flow{
		CFG:      cfg,
		Lat:      SetLattice[string]{},
		Transfer: genKill,
		Boundary: map[string]bool(nil),
	}).Solve()
	merge := sol.In[cfg.Blocks[4]].(map[string]bool)
	if !merge["x"] {
		t.Errorf("may-analysis dropped a fact generated on one arm: %v", merge)
	}
	if !merge["seed"] {
		t.Errorf("fact generated before the branch missing at merge: %v", merge)
	}
	exit := sol.In[cfg.Exit].(map[string]bool)
	if !exit["x"] || !exit["seed"] {
		t.Errorf("exit facts = %v, want x and seed", exit)
	}
}

// TestSolveLoopConvergence: a fact generated inside a loop must reach
// the loop head through the back edge, and the solver must terminate.
//
//	0 ── 2(head) ── 3(gen x) ──┐
//	      │   ^────────────────┘
//	      └── 1(exit)
func TestSolveLoopConvergence(t *testing.T) {
	cfg := handCFG(
		[][]ast.Node{
			0: {},
			1: {},
			2: {},
			3: {litNode("gen x")},
		},
		[][]int{
			0: {2},
			2: {3, 1},
			3: {2},
		},
	)
	sol := (&Flow{
		CFG:      cfg,
		Lat:      SetLattice[string]{},
		Transfer: genKill,
		Boundary: map[string]bool(nil),
	}).Solve()
	head := sol.In[cfg.Blocks[2]].(map[string]bool)
	if !head["x"] {
		t.Errorf("loop-generated fact never reached the head via the back edge: %v", head)
	}
	exit := sol.In[cfg.Exit].(map[string]bool)
	if !exit["x"] {
		t.Errorf("loop-generated fact missing at exit: %v", exit)
	}
}

// TestReplayFacts: Replay must hand the per-node fact matching a
// manual walk of the solved block.
func TestReplayFacts(t *testing.T) {
	cfg := handCFG(
		[][]ast.Node{
			0: {litNode("gen a"), litNode("gen b"), litNode("kill a")},
			1: {},
		},
		[][]int{0: {1}},
	)
	fl := &Flow{
		CFG:      cfg,
		Lat:      SetLattice[string]{},
		Transfer: genKill,
		Boundary: map[string]bool(nil),
	}
	sol := fl.Solve()
	var got []int
	sol.Replay(cfg.Entry, func(n ast.Node, f Fact) {
		got = append(got, len(f.(map[string]bool)))
	})
	// Before "gen a": {}; before "gen b": {a}; before "kill a": {a,b}.
	want := []int{0, 1, 2}
	if len(got) != len(want) {
		t.Fatalf("replay visited %d nodes, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("fact size before node %d = %d, want %d", i, got[i], want[i])
		}
	}
	out := sol.Out[cfg.Entry].(map[string]bool)
	if len(out) != 1 || !out["b"] {
		t.Errorf("block out-fact = %v, want {b}", out)
	}
}

// TestSolveUnreachableStaysBottom: facts must not leak into blocks with
// no path from the entry.
func TestSolveUnreachableStaysBottom(t *testing.T) {
	cfg := handCFG(
		[][]ast.Node{
			0: {litNode("gen x")},
			1: {},
			2: {litNode("gen dead")}, // no incoming edge
		},
		[][]int{
			0: {1},
			2: {1},
		},
	)
	sol := (&Flow{
		CFG:      cfg,
		Lat:      SetLattice[string]{},
		Transfer: genKill,
		Boundary: map[string]bool(nil),
	}).Solve()
	if f := sol.In[cfg.Blocks[2]].(map[string]bool); len(f) != 0 {
		t.Errorf("unreachable block carries facts: %v", f)
	}
	if f := sol.Out[cfg.Blocks[2]].(map[string]bool); len(f) != 0 {
		t.Errorf("unreachable block transferred facts: %v", f)
	}
}

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// DFSBorrow polices the ownership boundary between the engine's buffer
// pools and the simulated DFS that shuffle v2's zero-copy paths opened
// up. AppendBlock transfers a slice's ownership *to* the file system
// (readers borrow it through BlockView and MapInput), and BlockView
// lends a payload *out* without transferring anything. Either way the
// local function no longer owns the storage, so handing it to
// putSlice/Recycle would let the pools recycle bytes a DFS file still
// serves — silent data corruption the determinism tests only catch long
// after the fact, if at all.
//
// The check is a forward taint analysis over the function's CFG: facts
// are the set of variables currently aliasing DFS-owned storage.
// BlockView results and AppendBlock arguments gen taint; aliasing
// assignments (type assertions, reslices, appends, range bindings, and
// the per-clause implicits of type switches) propagate it; re-binding a
// variable to a fresh value kills it. The flow-insensitive predecessor
// had neither kills nor the type-switch and range bindings, so it
// flagged released-after-rebind false positives and missed leaks
// through `switch s := payload.(type)` entirely (Defs/Uses never see
// the per-clause object — only types.Info.Implicits does).
var DFSBorrow = &Analyzer{
	Name: "dfsborrow",
	Doc:  "slices owned by or borrowed from the DFS (AppendBlock/BlockView) are not returned to the buffer pools",
	Flow: true,
	Run:  runDFSBorrow,
}

func runDFSBorrow(p *Pass) {
	for _, file := range p.Pkg.Files {
		for _, fb := range funcBodies(file) {
			checkDFSBorrow(p, fb.body)
		}
	}
}

// borrowFlow is the per-function taint problem: facts are sets of
// objects aliasing DFS-owned storage.
type borrowFlow struct {
	p *Pass
}

func checkDFSBorrow(p *Pass, body *ast.BlockStmt) {
	// Cheap pre-scan: a function with no DFS boundary crossing cannot
	// taint anything, so skip the CFG entirely. Nested literals are
	// scanned too — an AppendBlock inside a closure taints captured
	// variables the enclosing function may later release.
	crosses := false
	ast.Inspect(body, func(n ast.Node) bool {
		if crosses {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				if sel.Sel.Name == "BlockView" || sel.Sel.Name == "AppendBlock" {
					crosses = true
				}
			}
		}
		return !crosses
	})
	if !crosses {
		return
	}
	bf := &borrowFlow{p: p}
	cfg := BuildCFG(body)
	sol := (&Flow{
		CFG:      cfg,
		Lat:      SetLattice[types.Object]{},
		Transfer: bf.transfer,
		Boundary: map[types.Object]bool(nil),
	}).Solve()
	// Replay every reachable block and flag pool releases whose argument
	// aliases tainted storage at that point. A deferred release appears
	// twice (registration and DeferRun at exit); the position key
	// deduplicates, and either occurrence with taint in force is a leak.
	reported := map[token.Pos]bool{}
	for _, blk := range cfg.Reachable() {
		sol.Replay(blk, func(n ast.Node, f Fact) {
			m := f.(map[types.Object]bool)
			if len(m) == 0 {
				return
			}
			node := n
			switch marker := n.(type) {
			case *DeferRun:
				node = marker.Defer
			case *CaseBind, *RangeHead:
				return // headers hold no calls
			}
			ast.Inspect(node, func(x ast.Node) bool {
				call, ok := x.(*ast.CallExpr)
				if !ok || !isPoolRelease(p, call) || reported[call.Pos()] {
					return true
				}
				var hits []types.Object
				for _, arg := range call.Args {
					for obj := range m {
						if exprMentions(p, []ast.Expr{arg}, obj) {
							hits = append(hits, obj)
						}
					}
				}
				if len(hits) == 0 {
					return true
				}
				sort.Slice(hits, func(i, j int) bool { return hits[i].Pos() < hits[j].Pos() })
				reported[call.Pos()] = true
				p.Reportf(call.Pos(),
					"slice %s aliases DFS block storage (AppendBlock/BlockView): recycling it lets the pools reuse bytes a file still serves",
					hits[0].Name())
				return true
			})
		})
	}
}

// transfer applies one CFG node to the taint set.
func (bf *borrowFlow) transfer(n ast.Node, f Fact) Fact {
	m := f.(map[types.Object]bool)
	p := bf.p
	switch n := n.(type) {
	case *ast.AssignStmt:
		m = bf.taintAppendBlockArgs(n, m)
		// Binding the results of a BlockView call taints every result.
		if len(n.Rhs) == 1 && isDFSCall(p, n.Rhs[0], "BlockView") {
			for _, lhs := range n.Lhs {
				if obj := identObj(p, lhs); obj != nil {
					m = setAdd(m, obj)
				}
			}
			return m
		}
		if n.Tok != token.ASSIGN && n.Tok != token.DEFINE {
			return m
		}
		if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
			// Tuple form: one producer for all variables. `old, isT :=
			// payload.([]T)` taints old when payload is tainted; any other
			// call re-binds every variable to a fresh value.
			tainted := bf.aliases(n.Rhs[0], m)
			for _, lhs := range n.Lhs {
				m = bf.rebind(m, lhs, tainted)
			}
			return m
		}
		for i, rhs := range n.Rhs {
			if i >= len(n.Lhs) {
				break
			}
			m = bf.rebind(m, n.Lhs[i], bf.aliases(rhs, m))
		}
		return m
	case *CaseBind:
		// `switch s := payload.(type)`: each clause introduces its own
		// object for s (types.Info.Implicits), bound from the subject.
		obj := p.Pkg.Info.Implicits[n.Clause]
		if obj == nil {
			return m
		}
		if bf.aliases(typeSwitchSubject(n.Switch), m) {
			return setAdd(m, obj)
		}
		return setDel(m, obj)
	case *DeferRun:
		// The deferred call runs at function exit; its body can hand
		// slices to AppendBlock like straight-line code, but the marker
		// itself is synthetic — unwrap it before any AST walk.
		return bf.taintAppendBlockArgs(n.Defer, m)
	case *RangeHead:
		// Ranging over a tainted container taints the value (and key)
		// bindings: element-wise releases of collected views must be
		// visible.
		tainted := bf.aliases(n.Range.X, m)
		if n.Range.Tok != token.ASSIGN && n.Range.Tok != token.DEFINE {
			return m
		}
		for _, e := range []ast.Expr{n.Range.Key, n.Range.Value} {
			if e != nil {
				m = bf.rebind(m, e, tainted)
			}
		}
		return m
	default:
		return bf.taintAppendBlockArgs(n, m)
	}
}

// rebind sets or clears the taint of the variable lhs binds: a tainted
// source propagates, a fresh source strongly kills (the variable can no
// longer alias the old storage after `s = make(...)`).
func (bf *borrowFlow) rebind(m map[types.Object]bool, lhs ast.Expr, tainted bool) map[types.Object]bool {
	obj := identObj(bf.p, lhs)
	if obj == nil {
		return m
	}
	if tainted {
		return setAdd(m, obj)
	}
	return setDel(m, obj)
}

// taintAppendBlockArgs taints every identifier handed to AppendBlock
// anywhere in n, including inside nested function literals (the closure
// captures the enclosing function's variable, so the taint is the
// enclosing function's problem too).
func (bf *borrowFlow) taintAppendBlockArgs(n ast.Node, m map[types.Object]bool) map[types.Object]bool {
	ast.Inspect(n, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "AppendBlock" {
			for _, arg := range call.Args {
				if obj := identObj(bf.p, arg); obj != nil {
					m = setAdd(m, obj)
				}
			}
		}
		return true
	})
	return m
}

// aliases reports whether evaluating rhs yields a value sharing storage
// with a tainted object. Aliasing follows the same shapes as
// poolreturn's escape check — identifiers, type assertions, reslices,
// indexing, address-taking — plus append (the result may share the
// tainted backing array) and composite literals holding tainted values.
func (bf *borrowFlow) aliases(rhs ast.Expr, m map[types.Object]bool) bool {
	p := bf.p
	switch e := ast.Unparen(rhs).(type) {
	case *ast.Ident:
		obj := p.Pkg.Info.Uses[e]
		return obj != nil && m[obj]
	case *ast.TypeAssertExpr:
		return bf.aliases(e.X, m)
	case *ast.SliceExpr:
		return bf.aliases(e.X, m)
	case *ast.UnaryExpr:
		return bf.aliases(e.X, m)
	case *ast.StarExpr:
		return bf.aliases(e.X, m)
	case *ast.IndexExpr:
		return bf.aliases(e.X, m)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if bf.aliases(el, m) {
				return true
			}
		}
	case *ast.CallExpr:
		if fn, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && fn.Name == "append" {
			if _, builtin := p.Pkg.Info.Uses[fn].(*types.Builtin); builtin {
				for _, a := range e.Args {
					if bf.aliases(a, m) {
						return true
					}
				}
			}
		}
	}
	return false
}

// typeSwitchSubject extracts the asserted expression of a type switch:
// the e of `switch s := e.(type)` or `switch e.(type)`.
func typeSwitchSubject(s *ast.TypeSwitchStmt) ast.Expr {
	var x ast.Expr
	switch a := s.Assign.(type) {
	case *ast.AssignStmt:
		x = a.Rhs[0]
	case *ast.ExprStmt:
		x = a.X
	default:
		return nil
	}
	ta, ok := ast.Unparen(x).(*ast.TypeAssertExpr)
	if !ok {
		return nil
	}
	return ta.X
}

// isDFSCall matches a call to a method with the given name (BlockView
// lives on *dfs.FS; matching by selector keeps the check independent of
// how callers reach the file system).
func isDFSCall(p *Pass, e ast.Expr, method string) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	return ok && sel.Sel.Name == method
}

// isPoolRelease matches the typed-pool release calls: the mr-internal
// putSlice and the exported mr.Recycle.
func isPoolRelease(p *Pass, call *ast.CallExpr) bool {
	fn := p.FuncFor(call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	name := fn.Name()
	return (name == "putSlice" || name == "Recycle") && fn.Pkg().Name() == "mr"
}

// identObj resolves an identifier expression to its object (nil for
// blanks and non-identifiers).
func identObj(p *Pass, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if obj := p.Pkg.Info.Defs[id]; obj != nil {
		return obj
	}
	return p.Pkg.Info.Uses[id]
}

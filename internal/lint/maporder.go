package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// MapOrder enforces the engine's central ordering invariant: code that
// feeds an emit callback must not iterate a Go map, because map
// iteration order is randomized per run and anything emitted (or
// accumulated, or counted) in that order breaks the bit-reproducibility
// of job counters and floating-point totals.
//
// A function is in "emit context" when it is
//
//   - a function literal bound to a Map or Reduce field of a composite
//     literal (the mr.Job / mr.Input plumbing), or
//   - any function — declaration or literal — that takes a parameter
//     named emit of function type.
//
// Inside such functions (including their nested closures) every
// `range` over a map is flagged, with one carve-out: a loop that does
// nothing but collect the keys into a slice that the same function then
// sorts (the collect-sort-iterate idiom) is order-independent by
// construction and passes. The other sanctioned fix — recording keys in
// a first-seen-order slice alongside the map, the pattern CrossMerge
// and PairwiseMergeN use — ranges over a slice and needs no carve-out.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc:  "no map iteration inside Map/Reduce or emit-callback functions",
	Run:  runMapOrder,
}

func runMapOrder(p *Pass) {
	seen := make(map[*ast.RangeStmt]bool)
	for _, file := range p.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			for _, ctx := range emitContexts(n) {
				ast.Inspect(ctx.body, func(m ast.Node) bool {
					rs, ok := m.(*ast.RangeStmt)
					if !ok || seen[rs] {
						return true
					}
					if _, isMap := p.TypeOf(rs.X).(*types.Map); !isMap {
						return true
					}
					seen[rs] = true
					if isSortedKeyCollection(p, rs, ctx.body) {
						return true
					}
					p.Reportf(rs.Pos(),
						"map iteration inside %s: emission and accumulation order must not depend on map order; iterate sorted keys or a first-seen-order key slice", ctx.why)
					return true
				})
			}
			return true
		})
	}
}

// emitCtx is one function body that must stay map-order-independent.
type emitCtx struct {
	body *ast.BlockStmt
	why  string
}

// emitContexts returns the emit-context function bodies n opens.
func emitContexts(n ast.Node) []emitCtx {
	switch n := n.(type) {
	case *ast.CompositeLit:
		var ctxs []emitCtx
		for _, elt := range n.Elts {
			kv, ok := elt.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			key, ok := kv.Key.(*ast.Ident)
			if !ok || (key.Name != "Map" && key.Name != "Reduce") {
				continue
			}
			if lit, ok := kv.Value.(*ast.FuncLit); ok {
				ctxs = append(ctxs, emitCtx{lit.Body, "a " + key.Name + " function"})
			}
		}
		return ctxs
	case *ast.FuncDecl:
		if n.Body != nil && hasEmitParam(n.Type) {
			return []emitCtx{{n.Body, "emit-callback function " + n.Name.Name}}
		}
	case *ast.FuncLit:
		if hasEmitParam(n.Type) {
			return []emitCtx{{n.Body, "an emit-callback function literal"}}
		}
	}
	return nil
}

// isSortedKeyCollection recognizes the collect-sort-iterate idiom: the
// range body is exactly one append of loop variables into a slice
// variable, and the surrounding context body sorts that slice (via
// package sort or slices). Such a loop is order-independent because
// nothing observes the collection order.
func isSortedKeyCollection(p *Pass, rs *ast.RangeStmt, ctx *ast.BlockStmt) bool {
	if len(rs.Body.List) != 1 {
		return false
	}
	as, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	dst, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok || len(call.Args) < 2 {
		return false
	}
	fn, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || fn.Name != "append" {
		return false
	}
	if _, builtin := p.Pkg.Info.Uses[fn].(*types.Builtin); !builtin {
		return false // a shadowed append could observe the order
	}
	if first, ok := ast.Unparen(call.Args[0]).(*ast.Ident); !ok || first.Name != dst.Name {
		return false
	}
	obj := p.Pkg.Info.Uses[dst]
	if obj == nil {
		obj = p.Pkg.Info.Defs[dst]
	}
	if obj == nil {
		return false
	}
	sorted := false
	ast.Inspect(ctx, func(n ast.Node) bool {
		if sorted {
			return false
		}
		c, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := p.FuncFor(c)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if path := fn.Pkg().Path(); path != "sort" && path != "slices" {
			return true
		}
		if !strings.Contains(fn.Name(), "Sort") && !sortFuncs[fn.Name()] {
			return true
		}
		if exprMentions(p, c.Args, obj) {
			sorted = true
		}
		return !sorted
	})
	return sorted
}

// exprMentions reports whether any expression references obj.
func exprMentions(p *Pass, exprs []ast.Expr, obj types.Object) bool {
	found := false
	for _, e := range exprs {
		if e == nil {
			continue
		}
		ast.Inspect(e, func(n ast.Node) bool {
			if found {
				return false
			}
			if id, ok := n.(*ast.Ident); ok && p.Pkg.Info.Uses[id] == obj {
				found = true
			}
			return !found
		})
	}
	return found
}

// sortFuncs are the sort-package entry points not containing "Sort".
var sortFuncs = map[string]bool{
	"Strings": true, "Ints": true, "Float64s": true, "Stable": true,
}

// hasEmitParam reports whether a function type declares a parameter
// named emit of function type.
func hasEmitParam(ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		if _, ok := field.Type.(*ast.FuncType); !ok {
			continue
		}
		for _, name := range field.Names {
			if name.Name == "emit" {
				return true
			}
		}
	}
	return false
}

package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
)

// ErrcheckIO forbids discarding error returns from the simulated DFS
// (package internal/dfs) and the model persistence layer (persist.go).
// Those errors are the job plans' only signal that a stage failed —
// a missing intermediate file, a write refused by the write-once rule,
// a truncated model, a block whose every replica failed its checksum
// (BlockView returns *ErrDataLoss) — and a dropped one silently
// corrupts the counters the paper's tables are reproduced from.
// Flagged forms: a call used as a bare statement, a call under
// go/defer, and an error result assigned to the blank identifier.
var ErrcheckIO = &Analyzer{
	Name: "errcheck-io",
	Doc:  "no discarded error returns from internal/dfs and persist.go APIs",
	Run:  runErrcheckIO,
}

func runErrcheckIO(p *Pass) {
	for _, file := range p.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				p.checkDiscardedCall(n.X, "call used as a statement")
			case *ast.GoStmt:
				p.checkDiscardedCall(n.Call, "call under go discards its error")
			case *ast.DeferStmt:
				p.checkDiscardedCall(n.Call, "deferred call discards its error")
			case *ast.AssignStmt:
				p.checkBlankAssign(n)
			}
			return true
		})
	}
}

// checkDiscardedCall flags e when it is a watched call whose results
// (error included) are thrown away wholesale.
func (p *Pass) checkDiscardedCall(e ast.Expr, how string) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return
	}
	fn := p.FuncFor(call)
	if fn == nil || !watchedIOFunc(p, fn) || len(errorResultIndices(fn)) == 0 {
		return
	}
	p.Reportf(call.Pos(), "error from %s.%s is discarded (%s); check it or annotate with //haten2:allow errcheck-io <reason>",
		fn.Pkg().Name(), fn.Name(), how)
}

// checkBlankAssign flags watched calls whose error result lands in the
// blank identifier.
func (p *Pass) checkBlankAssign(as *ast.AssignStmt) {
	report := func(call *ast.CallExpr, fn *types.Func) {
		p.Reportf(call.Pos(), "error from %s.%s is assigned to _; check it or annotate with //haten2:allow errcheck-io <reason>",
			fn.Pkg().Name(), fn.Name())
	}
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		// x, err := f(): one multi-valued call.
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return
		}
		fn := p.FuncFor(call)
		if fn == nil || !watchedIOFunc(p, fn) {
			return
		}
		for _, i := range errorResultIndices(fn) {
			if i < len(as.Lhs) && isBlank(as.Lhs[i]) {
				report(call, fn)
				return
			}
		}
		return
	}
	for i, rhs := range as.Rhs {
		if i >= len(as.Lhs) || !isBlank(as.Lhs[i]) {
			continue
		}
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok {
			continue
		}
		fn := p.FuncFor(call)
		if fn != nil && watchedIOFunc(p, fn) && len(errorResultIndices(fn)) > 0 {
			report(call, fn)
		}
	}
}

// watchedIOFunc reports whether fn belongs to the guarded I/O surface:
// any function or method of a package named dfs, or one declared in a
// file named persist.go.
func watchedIOFunc(p *Pass, fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	if fn.Pkg().Name() == "dfs" {
		return true
	}
	if !fn.Pos().IsValid() {
		return false
	}
	return filepath.Base(p.Pkg.Fset.Position(fn.Pos()).Filename) == "persist.go"
}

// errorResultIndices returns the positions of error-typed results.
func errorResultIndices(fn *types.Func) []int {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	var idx []int
	res := sig.Results()
	errType := types.Universe.Lookup("error").Type()
	for i := 0; i < res.Len(); i++ {
		if types.Identical(res.At(i).Type(), errType) {
			idx = append(idx, i)
		}
	}
	return idx
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

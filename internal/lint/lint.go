// Package lint is haten2's project-specific static-analysis suite.
//
// The MapReduce engine's headline property — job counters (jobs run,
// shuffle records, DFS reads) that are exactly reproducible run-to-run
// and across GOMAXPROCS settings — rests on a handful of coding
// invariants that Go does not enforce: no map-iteration-order-dependent
// emission inside mappers and reducers, no floating-point summation in
// map order, no wall-clock reads or ambient randomness in the
// simulation, and no silently dropped I/O errors. Package lint encodes
// each invariant as an Analyzer — five in all, each a syntactic AST
// walk — and is wired into `go test ./...` through its self-test, so a
// change that reintroduces a nondeterministic code shape fails tier-1
// CI even when no behavioral test happens to cover it.
//
// Neither concurrency nor pool ownership is linted. The few packages
// that spawn goroutines (mr, serve, mrproc) run under -race in CI, and
// goroutine-join tests in those packages check at runtime that every
// goroutine they start is joined. Under the same -race build the
// engine's typed pools count their loans and poison what they take back
// (internal/mr/pool.go), so a slab that never comes back, or one
// recycled while the DFS still owns it, fails a test where it happens.
//
// Findings are suppressed line-by-line with
//
//	//haten2:allow <check> <reason>
//
// placed on, or on the line directly above, the offending statement.
// The reason is mandatory; an allow comment without one is itself a
// finding.
//
// The suite is built only on the standard library (go/ast, go/parser,
// go/token, go/types) because the module is dependency-free and must
// stay that way.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Package is one type-checked, non-test package of the module under
// analysis.
type Package struct {
	// PkgPath is the full import path.
	PkgPath string
	// Dir is the directory the sources were read from.
	Dir string
	// Fset is the file set shared by every package of one Load call.
	Fset *token.FileSet
	// Files are the parsed non-test sources, with comments.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info holds the type-checker's expression and identifier facts.
	Info *types.Info
}

// Diagnostic is one finding, positioned for editors and CI logs.
type Diagnostic struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Check   string `json:"check"`
	Message string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Check, d.Message)
}

// Analyzer is one invariant check. Run inspects a package and reports
// findings through the pass.
type Analyzer struct {
	// Name is the check name used in output and in allow comments.
	Name string
	// Doc is a one-line description of the enforced invariant.
	Doc string
	// Run analyzes one package.
	Run func(p *Pass)
}

// Pass carries one (analyzer, package) unit of work.
type Pass struct {
	Check string
	Pkg   *Package
	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		File:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Check:   p.Check,
		Message: fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of an expression, or nil when unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

// FuncFor resolves the called function object of a call expression,
// looking through parenthesized and generic-instantiated callees.
// It returns nil for calls through function-typed variables, built-ins,
// and type conversions.
func (p *Pass) FuncFor(call *ast.CallExpr) *types.Func {
	e := ast.Unparen(call.Fun)
	if ix, ok := e.(*ast.IndexExpr); ok { // generic instantiation f[T](...)
		e = ix.X
	} else if ix, ok := e.(*ast.IndexListExpr); ok {
		e = ix.X
	}
	var id *ast.Ident
	switch fn := e.(type) {
	case *ast.Ident:
		id = fn
	case *ast.SelectorExpr:
		id = fn.Sel
	default:
		return nil
	}
	obj := p.Pkg.Info.Uses[id]
	if obj == nil {
		obj = p.Pkg.Info.Defs[id]
	}
	f, _ := obj.(*types.Func)
	return f
}

// Analyzers returns the full suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		MapOrder,
		FloatSum,
		WallClock,
		UnseededRand,
		ErrcheckIO,
	}
}

// RunSuite runs every analyzer over every package, resolves
// //haten2:allow suppressions (reporting malformed ones), and returns
// the surviving findings sorted by position.
func RunSuite(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	valid := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		valid[a.Name] = true
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			a.Run(&Pass{Check: a.Name, Pkg: pkg, diags: &diags})
		}
	}
	var allows []allow
	for _, pkg := range pkgs {
		a, bad := collectAllows(pkg, valid)
		allows = append(allows, a...)
		diags = append(diags, bad...)
	}
	diags = filterAllowed(diags, allows)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Check < b.Check
	})
	return diags
}

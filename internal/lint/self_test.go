package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// repoRoot is this repository's module root.
var repoRoot = filepath.Join("..", "..")

var repo struct {
	once sync.Once
	pkgs []*Package
	err  error
}

// loadRepo loads the repository's module once for all the self-tests.
func loadRepo(t *testing.T) []*Package {
	t.Helper()
	repo.once.Do(func() { repo.pkgs, repo.err = Load(repoRoot) })
	if repo.err != nil {
		t.Fatalf("loading the repository module: %v", repo.err)
	}
	return repo.pkgs
}

// TestRepoIsClean is the suite's meta-test: it loads this repository's
// own module and runs every analyzer over it, so a change that
// reintroduces a nondeterministic code shape (or discards a guarded
// I/O error, or leaks a pooled buffer) fails `go test ./...` even when
// no behavioral test covers the regression. Fix the finding, or — when
// the invariant provably cannot be violated at that site — annotate it
// with //haten2:allow <check> <reason>.
func TestRepoIsClean(t *testing.T) {
	pkgs := loadRepo(t)
	diags := RunSuite(pkgs, Analyzers())
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Log("fix the finding or annotate the line with //haten2:allow <check> <reason>")
	}
}

// keptForTests lists the exported functions and methods outside the
// root package that no non-test code calls but that are kept on
// purpose, each with its reason. Keys are "dir.Func" or
// "dir.Type.Method", dir being the package's directory in the module.
var keptForTests = map[string]string{
	"internal/tensor.Equal":                  "the sparse-tensor oracle of core's and gen's tests",
	"internal/tensor.Dense.ToSparse":         "builds exact-rank inputs in core's and baseline's tests",
	"internal/tensor.Kruskal.Full":           "materializes a model for core's and baseline's tests",
	"internal/tensor.Tensor.SetValue":        "core's property tests perturb staged values through it",
	"internal/matrix.FromRows":               "literal matrices in serve's and tensor's tests",
	"internal/matrix.KhatriRao":              "the matricized MTTKRP oracle in tensor's tests and the Gram identity gramProduct relies on",
	"internal/matrix.Matrix.Equal":           "the matrix comparison in baseline's, core's, matrix's and tensor's tests",
	"internal/matrix.Matrix.Norm":            "norm checks in matrix's and tensor's tests",
	"internal/matrix.Matrix.MaxAbs":          "worst-entry error bounds in core's and matrix's tests",
	"internal/mr.Cluster.Machines":           "the root package's and mr's fault tests pick machines to kill",
	"internal/mr.NewLoopback":                "test infrastructure: the in-process reference backend of the conformance suite",
	"internal/mr.Lent":                       "test infrastructure: the pool-loan count checked under -race",
	"internal/mr/conformance.RunConformance": "test infrastructure: every backend's tests run it",
	"internal/mrproc.Master.KillWorker":      "test infrastructure: mrproc's fault tests",
	"internal/mrproc.Master.FetchFile":       "the mrproc file plane, kept as a transport probe until the shuffle-only seam is finished",
}

// TestEveryExportIsCalled keeps the production build to what
// production calls: it fails on any exported function or method
// outside the root package (whose exports are the public API) that no
// non-test code uses outside its own body. Methods that satisfy an
// interface are exempt, since they are called through it. A helper
// kept for other packages' tests goes in keptForTests with its
// reason; anything else is deleted, or moved into the test files of
// the package whose tests use it.
func TestEveryExportIsCalled(t *testing.T) {
	pkgs := loadRepo(t)
	module, err := modulePath(filepath.Join(repoRoot, "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	uses := make(map[*types.Func][]token.Pos)
	for _, p := range pkgs {
		for id, obj := range p.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				uses[fn.Origin()] = append(uses[fn.Origin()], id.Pos())
			}
		}
	}
	ifaces := interfacesIn(pkgs)
	kept := make(map[string]bool)
	for _, p := range pkgs {
		if p.PkgPath == module {
			continue
		}
		dir := strings.TrimPrefix(p.PkgPath, module+"/")
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := p.Info.Defs[fd.Name].(*types.Func)
				name := dir + "." + fd.Name.Name
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					if satisfiesInterface(recv.Type(), fn.Name(), ifaces) {
						continue
					}
					name = dir + "." + baseType(recv.Type()).Obj().Name() + "." + fd.Name.Name
				}
				called := false
				for _, pos := range uses[fn] {
					if pos < fd.Pos() || pos >= fd.End() {
						called = true
						break
					}
				}
				switch {
				case keptForTests[name] != "":
					kept[name] = true
				case !called:
					t.Errorf("%s: %s has no non-test caller; delete it, or move it into the test files that use it",
						p.Fset.Position(fd.Pos()), name)
				}
			}
		}
	}
	for name := range keptForTests {
		if !kept[name] {
			t.Errorf("keptForTests names %s, which is no longer an exported function or method; drop the entry", name)
		}
	}
}

// baseType returns the named type of a method receiver, through a
// pointer if there is one.
func baseType(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return t.(*types.Named)
}

// interfacesIn returns every named interface declared in the module's
// packages or in any package they import, transitively, together with
// error and the unnamed interfaces package errors dispatches on.
func interfacesIn(pkgs []*Package) []*types.Interface {
	errType := types.Universe.Lookup("error").Type()
	anyType := types.Universe.Lookup("any").Type()
	tuple := func(ts ...types.Type) *types.Tuple {
		vs := make([]*types.Var, len(ts))
		for i, t := range ts {
			vs[i] = types.NewParam(token.NoPos, nil, "", t)
		}
		return types.NewTuple(vs...)
	}
	method := func(name string, params, results *types.Tuple) *types.Interface {
		sig := types.NewSignatureType(nil, nil, nil, params, results, false)
		it := types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, name, sig)}, nil)
		return it.Complete()
	}
	out := []*types.Interface{
		errType.Underlying().(*types.Interface),
		method("Unwrap", tuple(), tuple(errType)),
		method("Unwrap", tuple(), tuple(types.NewSlice(errType))),
		method("Is", tuple(errType), tuple(types.Typ[types.Bool])),
		method("As", tuple(anyType), tuple(types.Typ[types.Bool])),
	}
	seen := make(map[*types.Package]bool)
	var visit func(*types.Package)
	visit = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		scope := tp.Scope()
		for _, n := range scope.Names() {
			if tn, ok := scope.Lookup(n).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.IsMethodSet() && it.NumMethods() > 0 {
					out = append(out, it)
				}
			}
		}
		for _, imp := range tp.Imports() {
			visit(imp)
		}
	}
	for _, p := range pkgs {
		visit(p.Pkg)
	}
	return out
}

// satisfiesInterface reports whether the method named name is one
// through which its receiver's type, or a pointer to it, implements
// one of ifaces.
func satisfiesInterface(recv types.Type, name string, ifaces []*types.Interface) bool {
	named := baseType(recv)
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == name &&
				(types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
				return true
			}
		}
	}
	return false
}

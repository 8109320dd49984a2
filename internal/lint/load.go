package lint

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Load parses and type-checks every non-test package under root, which
// must be a module root (contain go.mod). The whole module is loaded so
// cross-package references resolve; callers filter the returned slice
// when analyzing a subset. Standard-library imports are type-checked
// from GOROOT source, so loading needs no network, no GOPATH
// installation, and no third-party loader.
//
// Test files (_test.go) are deliberately excluded: the determinism
// invariants guard the engine and its drivers, while tests are the
// place where wall-clock reads and ad-hoc iteration are legitimate.
func Load(root string) ([]*Package, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	raw, err := parseModule(fset, root, modPath)
	if err != nil {
		return nil, err
	}
	order, err := topoOrder(raw)
	if err != nil {
		return nil, err
	}
	std := importer.ForCompiler(fset, "source", nil)
	loaded := make(map[string]*Package, len(raw))
	var pkgs []*Package
	for _, path := range order {
		p := raw[path]
		pkg, err := typeCheck(fset, p, std, loaded)
		if err != nil {
			return nil, err
		}
		loaded[path] = pkg
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].PkgPath < pkgs[j].PkgPath })
	return pkgs, nil
}

// modulePath extracts the module declaration from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("lint: not a module root: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			mod := strings.TrimSpace(rest)
			mod = strings.Trim(mod, `"`)
			if mod != "" {
				return mod, nil
			}
		}
	}
	return "", fmt.Errorf("lint: no module declaration in %s", gomod)
}

// parsedPkg is a parsed-but-unchecked package.
type parsedPkg struct {
	pkgPath string
	dir     string
	files   []*ast.File
	names   []string // file names, parallel to files
	imports map[string]bool
}

// parseModule walks root and parses one package per directory holding
// Go sources, skipping testdata, vendor, and hidden directories.
func parseModule(fset *token.FileSet, root, modPath string) (map[string]*parsedPkg, error) {
	pkgs := make(map[string]*parsedPkg)
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		p, err := parseDir(fset, path, root, modPath)
		if err != nil {
			return err
		}
		if p != nil {
			pkgs[p.pkgPath] = p
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(pkgs) == 0 {
		return nil, fmt.Errorf("lint: no Go packages under %s", root)
	}
	return pkgs, nil
}

// parseDir parses the non-test sources of one directory that the
// default build compiles, or returns (nil, nil) when it holds none.
func parseDir(fset *token.FileSet, dir, root, modPath string) (*parsedPkg, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(root, dir)
	if err != nil {
		return nil, err
	}
	pkgPath := modPath
	if rel != "." {
		pkgPath = modPath + "/" + filepath.ToSlash(rel)
	}
	p := &parsedPkg{pkgPath: pkgPath, dir: dir, imports: make(map[string]bool)}
	pkgName := ""
	for _, e := range entries {
		fn := e.Name()
		if e.IsDir() || !strings.HasSuffix(fn, ".go") || strings.HasSuffix(fn, "_test.go") {
			continue
		}
		// The default build's files only: a //go:build race / !race pair
		// declares the same names twice.
		if ok, err := build.Default.MatchFile(dir, fn); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		file, err := parser.ParseFile(fset, filepath.Join(dir, fn), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		if pkgName == "" {
			pkgName = file.Name.Name
		} else if file.Name.Name != pkgName {
			return nil, fmt.Errorf("lint: %s: multiple packages %s and %s", dir, pkgName, file.Name.Name)
		}
		p.files = append(p.files, file)
		p.names = append(p.names, fn)
		for _, imp := range file.Imports {
			p.imports[strings.Trim(imp.Path.Value, `"`)] = true
		}
	}
	if len(p.files) == 0 {
		return nil, nil
	}
	return p, nil
}

// topoOrder sorts packages so every intra-module import precedes its
// importer, failing on cycles.
func topoOrder(pkgs map[string]*parsedPkg) ([]string, error) {
	const (
		white = 0 // unvisited
		gray  = 1 // on the current DFS path
		black = 2 // finished
	)
	state := make(map[string]int, len(pkgs))
	var order []string
	var visit func(path string) error
	visit = func(path string) error {
		switch state[path] {
		case black:
			return nil
		case gray:
			return fmt.Errorf("lint: import cycle through %s", path)
		}
		state[path] = gray
		deps := make([]string, 0, len(pkgs[path].imports))
		for imp := range pkgs[path].imports {
			if _, ok := pkgs[imp]; ok {
				deps = append(deps, imp)
			}
		}
		sort.Strings(deps)
		for _, dep := range deps {
			if err := visit(dep); err != nil {
				return err
			}
		}
		state[path] = black
		order = append(order, path)
		return nil
	}
	paths := make([]string, 0, len(pkgs))
	for path := range pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if err := visit(path); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// moduleImporter resolves intra-module imports from the packages
// checked so far and everything else through the GOROOT source
// importer.
type moduleImporter struct {
	std   types.Importer
	local map[string]*Package
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.local[path]; ok {
		return p.Pkg, nil
	}
	return m.std.Import(path)
}

// typeCheck runs the type checker over one parsed package.
func typeCheck(fset *token.FileSet, p *parsedPkg, std types.Importer, loaded map[string]*Package) (*Package, error) {
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	var errs []error
	cfg := types.Config{
		Importer: &moduleImporter{std: std, local: loaded},
		Error: func(err error) {
			if len(errs) < 10 {
				errs = append(errs, err)
			}
		},
	}
	tpkg, err := cfg.Check(p.pkgPath, fset, p.files, info)
	if len(errs) > 0 {
		return nil, fmt.Errorf("lint: type-checking %s: %w", p.pkgPath, errors.Join(errs...))
	}
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", p.pkgPath, err)
	}
	return &Package{
		PkgPath: p.pkgPath,
		Dir:     p.dir,
		Fset:    fset,
		Files:   p.files,
		Pkg:     tpkg,
		Info:    info,
	}, nil
}

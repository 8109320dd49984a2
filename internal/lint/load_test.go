package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// The loader's error paths: each failure mode must surface a message
// that names the problem, because haten2lint prints these verbatim and
// exits 2.

func TestLoadNonexistentDir(t *testing.T) {
	_, err := Load(filepath.Join(t.TempDir(), "no", "such", "module"))
	if err == nil {
		t.Fatal("Load of a nonexistent directory succeeded")
	}
	if !strings.Contains(err.Error(), "not a module root") {
		t.Errorf("error = %q, want it to mention \"not a module root\"", err)
	}
}

func TestLoadDirWithoutGoMod(t *testing.T) {
	dir := t.TempDir()
	writeFixtureFile(t, dir, "plain.go", "package plain\n")
	_, err := Load(dir)
	if err == nil {
		t.Fatal("Load of a module-less directory succeeded")
	}
	if !strings.Contains(err.Error(), "not a module root") {
		t.Errorf("error = %q, want it to mention \"not a module root\"", err)
	}
}

func TestLoadGoModWithoutModuleLine(t *testing.T) {
	dir := t.TempDir()
	writeFixtureFile(t, dir, "go.mod", "go 1.22\n")
	writeFixtureFile(t, dir, "plain.go", "package plain\n")
	_, err := Load(dir)
	if err == nil {
		t.Fatal("Load with a module-less go.mod succeeded")
	}
	if !strings.Contains(err.Error(), "no module declaration") {
		t.Errorf("error = %q, want it to mention \"no module declaration\"", err)
	}
}

func TestLoadMalformedSource(t *testing.T) {
	dir := t.TempDir()
	writeFixtureFile(t, dir, "go.mod", "module fixture.example/broken\n\ngo 1.22\n")
	writeFixtureFile(t, dir, "broken.go", "package broken\n\nfunc f( {\n")
	_, err := Load(dir)
	if err == nil {
		t.Fatal("Load of malformed source succeeded")
	}
	if !strings.Contains(err.Error(), "broken.go") {
		t.Errorf("error = %q, want it to name broken.go", err)
	}
}

func TestLoadTypeCheckFailure(t *testing.T) {
	dir := t.TempDir()
	writeFixtureFile(t, dir, "go.mod", "module fixture.example/illtyped\n\ngo 1.22\n")
	writeFixtureFile(t, dir, "illtyped.go", "package illtyped\n\nfunc f() int { return \"not an int\" }\n")
	_, err := Load(dir)
	if err == nil {
		t.Fatal("Load of ill-typed source succeeded")
	}
	if !strings.Contains(err.Error(), "lint: type-checking fixture.example/illtyped") {
		t.Errorf("error = %q, want a type-checking failure naming the package", err)
	}
}

func TestLoadNoGoPackages(t *testing.T) {
	dir := t.TempDir()
	writeFixtureFile(t, dir, "go.mod", "module fixture.example/empty\n\ngo 1.22\n")
	writeFixtureFile(t, dir, "README.txt", "no Go here\n")
	_, err := Load(dir)
	if err == nil {
		t.Fatal("Load of a source-less module succeeded")
	}
	if !strings.Contains(err.Error(), "no Go packages under") {
		t.Errorf("error = %q, want it to mention \"no Go packages under\"", err)
	}
}

func TestLoadConflictingPackageNames(t *testing.T) {
	dir := t.TempDir()
	writeFixtureFile(t, dir, "go.mod", "module fixture.example/conflict\n\ngo 1.22\n")
	writeFixtureFile(t, dir, "a.go", "package alpha\n")
	writeFixtureFile(t, dir, "b.go", "package beta\n")
	_, err := Load(dir)
	if err == nil {
		t.Fatal("Load of a two-package directory succeeded")
	}
	if !strings.Contains(err.Error(), "multiple packages") {
		t.Errorf("error = %q, want it to mention \"multiple packages\"", err)
	}
}

func TestLoadImportCycle(t *testing.T) {
	dir := t.TempDir()
	writeFixtureFile(t, dir, "go.mod", "module fixture.example/cycle\n\ngo 1.22\n")
	writeFixtureFile(t, dir, "a/a.go", "package a\n\nimport _ \"fixture.example/cycle/b\"\n")
	writeFixtureFile(t, dir, "b/b.go", "package b\n\nimport _ \"fixture.example/cycle/a\"\n")
	_, err := Load(dir)
	if err == nil {
		t.Fatal("Load of an import cycle succeeded")
	}
	if !strings.Contains(err.Error(), "import cycle through") {
		t.Errorf("error = %q, want it to mention \"import cycle through\"", err)
	}
}

// A //go:build race / !race pair declares each name once per build; the
// loader type-checks the default build's half.
func TestLoadBuildConstraintPair(t *testing.T) {
	dir := t.TempDir()
	writeFixtureFile(t, dir, "go.mod", "module fixture.example/tags\n\ngo 1.22\n")
	writeFixtureFile(t, dir, "on.go", "//go:build race\n\npackage tags\n\nconst on = true\n")
	writeFixtureFile(t, dir, "off.go", "//go:build !race\n\npackage tags\n\nconst on = false\n")
	pkgs, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || len(pkgs[0].Files) != 1 {
		t.Fatalf("loaded %d packages, want one with off.go alone", len(pkgs))
	}
	if name := filepath.Base(pkgs[0].Fset.Position(pkgs[0].Files[0].Pos()).Filename); name != "off.go" {
		t.Errorf("loaded %s, want off.go", name)
	}
}

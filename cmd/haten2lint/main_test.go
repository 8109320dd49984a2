package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/haten2/haten2/internal/lint"
)

// writeModule materializes a throwaway module for the CLI to analyze.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, content := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

const cleanSrc = `package clean

func Sum(xs []int) int {
	n := 0
	for _, v := range xs {
		n += v
	}
	return n
}
`

const dirtySrc = `package dirty

import "time"

func Stamp() time.Time { return time.Now() }
`

func TestExitCodeCleanModule(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":   "module example.test/clean\n\ngo 1.22\n",
		"clean.go": cleanSrc,
	})
	var out, errBuf bytes.Buffer
	if code := run(nil, dir, &out, &errBuf); code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout: %s\nstderr: %s", code, out.String(), errBuf.String())
	}
	if out.Len() != 0 {
		t.Errorf("clean run printed findings: %q", out.String())
	}
}

func TestExitCodeFindings(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":   "module example.test/dirty\n\ngo 1.22\n",
		"dirty.go": dirtySrc,
	})
	var out, errBuf bytes.Buffer
	if code := run(nil, dir, &out, &errBuf); code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout: %s\nstderr: %s", code, out.String(), errBuf.String())
	}
	if !strings.Contains(out.String(), "[wallclock]") {
		t.Errorf("findings output missing [wallclock]: %q", out.String())
	}
}

func TestExitCodeLoadError(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":    "module example.test/broken\n\ngo 1.22\n",
		"broken.go": "package broken\n\nfunc f() int { return \"not an int\" }\n",
	})
	var out, errBuf bytes.Buffer
	if code := run(nil, dir, &out, &errBuf); code != 2 {
		t.Fatalf("exit = %d, want 2\nstdout: %s\nstderr: %s", code, out.String(), errBuf.String())
	}
	if !strings.Contains(errBuf.String(), "type-checking") {
		t.Errorf("stderr missing type-check failure: %q", errBuf.String())
	}
}

func TestJSONOutput(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":   "module example.test/dirty\n\ngo 1.22\n",
		"dirty.go": dirtySrc,
	})
	var out, errBuf bytes.Buffer
	if code := run([]string{"-json"}, dir, &out, &errBuf); code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr: %s", code, errBuf.String())
	}
	var rep jsonReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out.String())
	}
	if rep.Count != 1 || len(rep.Findings) != 1 {
		t.Fatalf("count = %d, findings = %d, want 1 and 1", rep.Count, len(rep.Findings))
	}
	f := rep.Findings[0]
	if f.Check != "wallclock" || filepath.Base(f.File) != "dirty.go" || f.Line != 5 {
		t.Errorf("finding = %+v, want wallclock at dirty.go:5", f)
	}
}

func TestListFlag(t *testing.T) {
	var out, errBuf bytes.Buffer
	// -list never loads the module, so it must succeed even from a
	// directory with no go.mod.
	if code := run([]string{"-list"}, t.TempDir(), &out, &errBuf); code != 0 {
		t.Fatalf("exit = %d, want 0\nstderr: %s", code, errBuf.String())
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	analyzers := lint.Analyzers()
	if len(lines) != len(analyzers) {
		t.Fatalf("-list printed %d lines, want %d:\n%s", len(lines), len(analyzers), out.String())
	}
	for i, a := range analyzers {
		if name, doc, _ := strings.Cut(lines[i], " "); name != a.Name || strings.TrimSpace(doc) != a.Doc {
			t.Errorf("-list line %d = %q, want %s and its doc", i, lines[i], a.Name)
		}
	}
}

func TestBadPattern(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":   "module example.test/clean\n\ngo 1.22\n",
		"clean.go": cleanSrc,
	})
	var out, errBuf bytes.Buffer
	if code := run([]string{"./nosuchdir"}, dir, &out, &errBuf); code != 2 {
		t.Fatalf("exit = %d, want 2\nstderr: %s", code, errBuf.String())
	}
	if !strings.Contains(errBuf.String(), "matched no packages") {
		t.Errorf("stderr missing pattern error: %q", errBuf.String())
	}
}

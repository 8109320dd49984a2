package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// Each analyzer has a golden fixture module under testdata/<check>/
// (check name with dashes dropped). Lines expected to be flagged carry
// a trailing
//
//	// want "substring of the diagnostic message"
//
// comment; the harness demands a one-to-one match between want
// comments and surviving diagnostics, so both false positives and
// false negatives fail the test — including suppressed cases, which
// must produce no diagnostic and therefore carry no want comment.
func TestAnalyzerFixtures(t *testing.T) {
	for _, a := range Analyzers() {
		t.Run(a.Name, func(t *testing.T) {
			dir := filepath.Join("testdata", strings.ReplaceAll(a.Name, "-", ""))
			pkgs, err := Load(dir)
			if err != nil {
				t.Fatalf("Load(%s): %v", dir, err)
			}
			wants := collectWants(t, pkgs)
			diags := RunSuite(pkgs, []*Analyzer{a})
			matchWants(t, wants, diags)
		})
	}
}

// fixtureWant is one parsed "// want" expectation.
type fixtureWant struct {
	file    string
	line    int
	substr  string
	matched bool
}

// collectWants parses every want comment of the loaded fixture.
func collectWants(t *testing.T, pkgs []*Package) []*fixtureWant {
	t.Helper()
	var wants []*fixtureWant
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, group := range file.Comments {
				for _, c := range group.List {
					body, ok := strings.CutPrefix(c.Text, "//")
					if !ok {
						continue
					}
					rest, ok := strings.CutPrefix(strings.TrimSpace(body), "want ")
					if !ok {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					substr, err := strconv.Unquote(strings.TrimSpace(rest))
					if err != nil {
						t.Fatalf("%s:%d: unparseable want comment %q: %v", pos.Filename, pos.Line, c.Text, err)
					}
					wants = append(wants, &fixtureWant{file: pos.Filename, line: pos.Line, substr: substr})
				}
			}
		}
	}
	return wants
}

// matchWants pairs diagnostics with want comments one-to-one.
func matchWants(t *testing.T, wants []*fixtureWant, diags []Diagnostic) {
	t.Helper()
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.matched && w.file == d.File && w.line == d.Line && strings.Contains(d.Message, w.substr) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.substr)
		}
	}
}

// TestSuppressionParsing covers the malformed-allow diagnostics, which
// cannot be expressed as want comments (the want text would parse as
// the allow reason). It also verifies that the "allow" pseudo-check is
// not itself suppressible and that a well-formed allow really filters
// the finding on the next line.
func TestSuppressionParsing(t *testing.T) {
	dir := t.TempDir()
	writeFixtureFile(t, dir, "go.mod", "module fixture.example/suppress\n\ngo 1.22\n")
	writeFixtureFile(t, dir, "clock.go", `package suppress

import "time"

func bare() time.Time {
	//haten2:allow
	return time.Now()
}

func unknown() time.Time {
	//haten2:allow bogus because the check name does not exist
	return time.Now()
}

func reasonless() time.Time {
	//haten2:allow wallclock
	return time.Now()
}

func justified() time.Time {
	//haten2:allow wallclock reasons are recorded and this one is fine
	return time.Now()
}
`)
	pkgs, err := Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	diags := RunSuite(pkgs, Analyzers())
	var got []string
	for _, d := range diags {
		got = append(got, fmt.Sprintf("%d:[%s]", d.Line, d.Check))
	}
	// Lines 6, 11, 16 hold the three bad allow comments; each leaves
	// its time.Now on the next line unsuppressed. Line 21's allow is
	// well-formed, so line 22's time.Now is filtered.
	want := []string{
		"6:[allow]", "7:[wallclock]",
		"11:[allow]", "12:[wallclock]",
		"16:[allow]", "17:[wallclock]",
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("diagnostics = %v, want %v", got, want)
	}
	assertMessage(t, diags, 6, "malformed suppression")
	assertMessage(t, diags, 11, `unknown check "bogus"`)
	assertMessage(t, diags, 16, "needs a reason")
}

func assertMessage(t *testing.T, diags []Diagnostic, line int, substr string) {
	t.Helper()
	for _, d := range diags {
		if d.Line == line {
			if !strings.Contains(d.Message, substr) {
				t.Errorf("line %d: message %q does not contain %q", line, d.Message, substr)
			}
			return
		}
	}
	t.Errorf("no diagnostic on line %d", line)
}

func writeFixtureFile(t *testing.T, dir, name, content string) {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestDiagnosticString pins the file:line:col: [check] message form that
// editors and CI logs parse.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{File: "internal/x/x.go", Line: 12, Col: 3, Check: "maporder", Message: "range over map"}
	if got, want := d.String(), "internal/x/x.go:12:3: [maporder] range over map"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

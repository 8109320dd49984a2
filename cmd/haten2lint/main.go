// Command haten2lint runs the project's determinism-invariant
// static-analysis suite (package internal/lint) over the module.
//
// Usage:
//
//	haten2lint [-json] [-list] [packages]
//
// Packages are directory patterns relative to the current directory;
// "./..." (the default) analyzes the whole module, "./internal/mr"
// just that package. Test files are never analyzed.
//
// Exit codes: 0 when clean, 1 when findings were reported, 2 when the
// module failed to load or type-check.
//
// Findings are suppressed line-by-line with
//
//	//haten2:allow <check> <reason>
//
// on, or directly above, the offending statement (an allow on a func
// declaration covers the whole function). Run with -json for
// machine-readable output, or -list for one line per check — its name
// and the invariant it enforces.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"github.com/haten2/haten2/internal/lint"
)

func main() {
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "haten2lint:", err)
		os.Exit(2)
	}
	os.Exit(run(os.Args[1:], wd, os.Stdout, os.Stderr))
}

// jsonReport is the -json output shape.
type jsonReport struct {
	Findings []lint.Diagnostic `json:"findings"`
	Count    int               `json:"count"`
}

func run(args []string, dir string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("haten2lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as JSON")
	list := fs.Bool("list", false, "list the suite's checks and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	root, err := moduleRoot(dir)
	if err != nil {
		fmt.Fprintln(stderr, "haten2lint:", err)
		return 2
	}
	pkgs, err := lint.Load(root)
	if err != nil {
		fmt.Fprintln(stderr, "haten2lint:", err)
		return 2
	}
	selected, err := selectPackages(pkgs, dir, patterns)
	if err != nil {
		fmt.Fprintln(stderr, "haten2lint:", err)
		return 2
	}
	diags := lint.RunSuite(selected, analyzers)
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonReport{Findings: diags, Count: len(diags)}); err != nil {
			fmt.Fprintln(stderr, "haten2lint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// moduleRoot walks up from dir to the nearest directory holding go.mod.
func moduleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := dir; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no go.mod found in or above %s", dir)
		}
		d = parent
	}
}

// selectPackages filters the loaded module down to the packages the
// directory patterns name: "<dir>/..." selects a subtree, anything else
// exactly one directory.
func selectPackages(pkgs []*lint.Package, dir string, patterns []string) ([]*lint.Package, error) {
	var out []*lint.Package
	seen := make(map[string]bool)
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
			if pat == "" {
				pat = "."
			}
		} else if pat == "..." {
			recursive, pat = true, "."
		}
		base, err := filepath.Abs(filepath.Join(dir, pat))
		if err != nil {
			return nil, err
		}
		matched := false
		for _, p := range pkgs {
			ok := p.Dir == base
			if recursive && !ok {
				ok = strings.HasPrefix(p.Dir, base+string(filepath.Separator)) || p.Dir == base
			}
			if !ok {
				continue
			}
			matched = true
			if !seen[p.PkgPath] {
				seen[p.PkgPath] = true
				out = append(out, p)
			}
		}
		if !matched {
			return nil, fmt.Errorf("pattern %q matched no packages", pat)
		}
	}
	return out, nil
}

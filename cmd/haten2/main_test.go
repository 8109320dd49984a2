package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	haten2 "github.com/haten2/haten2"
	"github.com/haten2/haten2/internal/gen"
	"github.com/haten2/haten2/internal/tensor"
)

// writeTensorFile stages a generated tensor into a temp file.
func writeTensorFile(t *testing.T, x *tensor.Tensor) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "x.coo")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tensor.WriteCOO(f, x); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func baseConfig(in string) cliConfig {
	return cliConfig{
		in: in, method: "parafac", rank: 2, coreStr: "2x2x2",
		variantStr: "DRI", machines: 4, iters: 3, tol: 1e-4, quiet: true,
	}
}

func TestRunParafac3Way(t *testing.T) {
	in := writeTensorFile(t, gen.Random(1, [3]int64{10, 10, 10}, 40))
	cfg := baseConfig(in)
	cfg.factorsDir = filepath.Join(t.TempDir(), "facs")
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"A.tsv", "B.tsv", "C.tsv"} {
		if _, err := os.Stat(filepath.Join(cfg.factorsDir, name)); err != nil {
			t.Fatalf("factor %s missing: %v", name, err)
		}
	}
}

func TestRunTuckerWithModelSave(t *testing.T) {
	in := writeTensorFile(t, gen.Random(2, [3]int64{8, 8, 8}, 30))
	cfg := baseConfig(in)
	cfg.method = "tucker"
	cfg.modelPath = filepath.Join(t.TempDir(), "model.txt")
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	mf, err := os.Open(cfg.modelPath)
	if err != nil {
		t.Fatal(err)
	}
	defer mf.Close()
	if _, err := haten2.LoadTucker(mf); err != nil {
		t.Fatalf("saved model does not load: %v", err)
	}
}

func TestRunNonnegative(t *testing.T) {
	in := writeTensorFile(t, gen.Random(3, [3]int64{8, 8, 8}, 30))
	cfg := baseConfig(in)
	cfg.method = "nonnegative"
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRun4Way(t *testing.T) {
	logs := gen.NewIntrusion4D(gen.IntrusionConfig{Seed: 4, Background: 100}, 12)
	in := writeTensorFile(t, logs.Tensor)
	cfg := baseConfig(in)
	cfg.factorsDir = filepath.Join(t.TempDir(), "facs")
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(cfg.factorsDir, "D.tsv")); err != nil {
		t.Fatal("4-way run should write a D factor")
	}
	// 4-way Tucker too.
	cfg2 := baseConfig(in)
	cfg2.method = "tucker"
	cfg2.coreStr = "2x2x2x2"
	if err := run(cfg2); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	in := writeTensorFile(t, gen.Random(5, [3]int64{6, 6, 6}, 10))
	cases := []cliConfig{
		{}, // missing -in
		func() cliConfig { c := baseConfig(in); c.method = "bogus"; return c }(),
		func() cliConfig { c := baseConfig(in); c.variantStr = "bogus"; return c }(),
		func() cliConfig { c := baseConfig(in); c.method = "tucker"; c.coreStr = "axb"; return c }(),
		func() cliConfig { c := baseConfig(in); c.in = "/does/not/exist"; return c }(),
	}
	for i, cfg := range cases {
		if err := run(cfg); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
	// 4-way with -model must be rejected.
	logs := gen.NewIntrusion4D(gen.IntrusionConfig{Seed: 4, Background: 50}, 8)
	in4 := writeTensorFile(t, logs.Tensor)
	cfg := baseConfig(in4)
	cfg.modelPath = filepath.Join(t.TempDir(), "m.txt")
	if err := run(cfg); err == nil || !strings.Contains(err.Error(), "3-way") {
		t.Fatalf("4-way model save should be rejected, got %v", err)
	}
}

// TestRunRefusesUnallocatableShape: a shape header whose factors no
// allocation could hold is a typed error before anything is staged, not
// a makeslice panic in the factor initialization.
func TestRunRefusesUnallocatableShape(t *testing.T) {
	in := filepath.Join(t.TempDir(), "huge.coo")
	if err := os.WriteFile(in, []byte("# tensor 9223372036854775807 9223372036854775807 2\n0 0 0 1\n1 2 1 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, method := range []string{"parafac", "tucker"} {
		cfg := baseConfig(in)
		cfg.method = method
		var e *haten2.ErrFactorTooLarge
		if err := run(cfg); !errors.As(err, &e) || e.Mode != 0 {
			t.Errorf("%s: want *ErrFactorTooLarge for mode 0, got %v", method, err)
		}
	}
}

func TestParseCore(t *testing.T) {
	if c, err := parseCore("3x4x5", 3); err != nil || c[2] != 5 {
		t.Fatalf("parseCore: %v %v", c, err)
	}
	for _, bad := range []string{"3x4", "ax4x5", "0x4x5", "3x4x5x6"} {
		if _, err := parseCore(bad, 3); err == nil {
			t.Fatalf("parseCore accepted %q", bad)
		}
	}
}

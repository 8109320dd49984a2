package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	haten2 "github.com/haten2/haten2"
	"github.com/haten2/haten2/internal/gen"
	"github.com/haten2/haten2/internal/serve"
	"github.com/haten2/haten2/internal/tensor"
)

func writeKBFile(t *testing.T) string {
	t.Helper()
	kb := gen.NewKB(gen.KBConfig{
		Seed: 3, Theme: "music", ConceptNames: []string{"alpha", "beta"},
		EntitiesPerConcept: 8, TriplesPerConcept: 120, NoiseTriples: 20,
	})
	path := filepath.Join(t.TempDir(), "kb.coo")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for i, s := range kb.Subjects {
		fmt.Fprintf(f, "# subject %d %s\n", i, s)
	}
	for i, s := range kb.Objects {
		fmt.Fprintf(f, "# object %d %s\n", i, s)
	}
	for i, s := range kb.Predicates {
		fmt.Fprintf(f, "# predicate %d %s\n", i, s)
	}
	if err := tensor.WriteCOO(f, kb.Tensor()); err != nil {
		t.Fatal(err)
	}
	return path
}

func defaults() options {
	return options{
		method: "parafac", rank: 2, iters: 20, machines: 8,
		shards: 4, cache: 64, batch: 8, topk: 3,
	}
}

func TestServeFromTensorFile(t *testing.T) {
	o := defaults()
	o.in = writeKBFile(t)
	script := strings.Join([]string{
		"objects 0 0 3",
		"members 0",
		"members 1 4",
		"membership 2",
		"stats",
		"", // blank lines are skipped
		"help",
		"bogus-command",
		"objects 0", // wrong arity
		"objects x y",
		"quit",
	}, "\n")
	var out strings.Builder
	if err := run(&out, strings.NewReader(script), o); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"serving", "shards", "music/", "concept 0 →", "concept 1 →",
		"queries", "occupancy", "rows scored per miss", "commands:", "unknown command",
		"error:", "→",
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
}

// TestServeFromPersistedModels covers both persisted formats through
// the magic-sniffing loader.
func TestServeFromPersistedModels(t *testing.T) {
	path := writeKBFile(t)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	raw, _, err := gen.ReadLabeledCOO(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	x := haten2.WrapTensor(raw)
	cluster := haten2.NewCluster(haten2.ClusterConfig{Machines: 4})
	opt := haten2.Options{Variant: haten2.DRI, MaxIters: 10, Seed: 1}

	pres, err := haten2.Parafac(cluster, x, 2, opt)
	if err != nil {
		t.Fatal(err)
	}
	ppath := filepath.Join(t.TempDir(), "model.parafac")
	pf, _ := os.Create(ppath)
	if err := pres.Save(pf); err != nil {
		t.Fatal(err)
	}
	pf.Close()

	tres, err := haten2.Tucker(cluster, x, [3]int{2, 2, 2}, opt)
	if err != nil {
		t.Fatal(err)
	}
	tpath := filepath.Join(t.TempDir(), "model.tucker")
	tf, _ := os.Create(tpath)
	if err := tres.Save(tf); err != nil {
		t.Fatal(err)
	}
	tf.Close()

	for _, mpath := range []string{ppath, tpath} {
		o := defaults()
		o.model = mpath
		var out strings.Builder
		if err := run(&out, strings.NewReader("objects 0 0 2\nstats\nquit\n"), o); err != nil {
			t.Fatalf("%s: %v", mpath, err)
		}
		// No vocabulary with -model: ids print as #id.
		if !strings.Contains(out.String(), "#") {
			t.Fatalf("%s: expected #id labels:\n%s", mpath, out.String())
		}
	}
}

func TestServeErrors(t *testing.T) {
	o := defaults()
	if err := run(io.Discard, strings.NewReader(""), o); err == nil {
		t.Fatal("no input source accepted")
	}
	o.model = "/does/not/exist"
	if err := run(io.Discard, strings.NewReader(""), o); err == nil {
		t.Fatal("missing model file accepted")
	}
	o.in = "also-set"
	if err := run(io.Discard, strings.NewReader(""), o); err == nil {
		t.Fatal("-model with -in accepted")
	}

	bad := filepath.Join(t.TempDir(), "bad.model")
	os.WriteFile(bad, []byte("not-a-model\n"), 0o644)
	o = defaults()
	o.model = bad
	if err := run(io.Discard, strings.NewReader(""), o); err == nil {
		t.Fatal("bad magic accepted")
	}

	// The persisted format reads NaN back; the server refuses to serve it.
	nan := filepath.Join(t.TempDir(), "nan.model")
	os.WriteFile(nan, []byte("haten2-parafac-v1\nrank 1\n1\nmatrix 1 1\n1\nmatrix 2 1\n1\nNaN\nmatrix 1 1\n1\n"), 0o644)
	o = defaults()
	o.model = nan
	var nf *serve.ErrNonFinite
	if err := run(io.Discard, strings.NewReader("objects 0 0\n"), o); !errors.As(err, &nf) || nf.Mode != 1 || nf.At[0] != 1 {
		t.Fatalf("NaN model: err = %v, want *serve.ErrNonFinite at object row 1", err)
	}

	o = defaults()
	o.in = writeKBFile(t)
	o.method = "bogus"
	if err := run(io.Discard, strings.NewReader(""), o); err == nil {
		t.Fatal("bogus method accepted")
	}
}

package bench

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden report fixtures in testdata/")

// checkGolden pins rep's printed text (default scale, seed 42) against
// testdata/<id>.golden. Every experiment is a pure function of its
// Config, so a diff is either an intentional change to a table (rerun
// with -update and review the diff) or a determinism regression. It is
// called from the tests that already run an experiment, so no sweep
// runs a second time for its golden.
func checkGolden(t *testing.T, rep *Report) {
	t.Helper()
	var buf bytes.Buffer
	rep.Print(&buf)
	path := filepath.Join("testdata", rep.ID+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/bench -update` to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("%s differs from %s; rerun with -update if the change is intentional\n--- got\n%s--- want\n%s",
			rep.ID, path, buf.Bytes(), want)
	}
}

package main

import (
	"strings"
	"testing"

	"github.com/haten2/haten2/internal/bench"
)

func TestRunUnknownExperiment(t *testing.T) {
	// The retired reporters are unknown ids like any typo, and the error
	// lists what is known.
	for _, id := range []string{"nope", "mr", "faults", "storage", "serve", "combiner", "table2,nope"} {
		err := run(id, bench.Config{Seed: 1}, false)
		if err == nil || !strings.Contains(err.Error(), "known: table2 table3") {
			t.Fatalf("-exp %s: %v", id, err)
		}
	}
}

func TestRunSingleExperiment(t *testing.T) {
	// table2 is static and instant; this exercises the registry and
	// printing path end to end.
	if err := run("table2", bench.Config{Seed: 1}, false); err != nil {
		t.Fatal(err)
	}
	if err := run("table2, table5", bench.Config{Seed: 1}, true); err != nil {
		t.Fatal(err)
	}
}

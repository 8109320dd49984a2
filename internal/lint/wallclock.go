package lint

import (
	"go/ast"
	"strings"
)

// WallClock keeps real time out of the simulation. The engine's
// "running time" is the calibrated cost model's SimSeconds — a pure
// function of job counters — so a time.Now (or Since/Until sugar)
// anywhere in the engine, plans, or drivers smuggles host speed into
// results that must be machine-independent — the evaluation harness
// (internal/bench, cmd/haten2bench) included, whose tables are
// simulated time. Wall-clock reads are legitimate only in the socket
// transport and in tests (which the loader already excludes); the
// pipeline benchmark, where wall time is the measured quantity, reads
// the clock at one seam behind a reasoned //haten2:allow.
var WallClock = &Analyzer{
	Name: "wallclock",
	Doc:  "no time.Now outside the socket transport and tests",
	Run:  runWallClock,
}

// wallClockAllowed are import-path suffixes where wall-clock reads are
// the point. internal/mrproc and cmd/haten2worker are transport, not
// simulation: their clock reads drive socket deadlines and membership
// heartbeats, which may change wall-clock time and liveness decisions
// but never job counters or output bytes (the cross-backend conformance
// suite pins that).
var wallClockAllowed = []string{"internal/mrproc", "cmd/haten2worker"}

func runWallClock(p *Pass) {
	for _, suffix := range wallClockAllowed {
		if strings.HasSuffix(p.Pkg.PkgPath, suffix) {
			return
		}
	}
	for _, file := range p.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := p.FuncFor(call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
				return true
			}
			switch fn.Name() {
			case "Now", "Since", "Until":
				p.Reportf(call.Pos(),
					"time.%s reads the wall clock: simulated results must depend only on job counters (allowed only in the socket transport and tests)", fn.Name())
			}
			return true
		})
	}
}

package analysis

import (
	"go/ast"
)

// wallclockPkgs are the deterministic packages: the shifting framework
// (paper §2, §4.1–4.2) reasons about equivalent executions, which only
// holds if replaying a simulated execution is bit-identical — so nothing
// in these packages may read the wall clock.
var wallclockPkgs = []string{
	"internal/core",
	"internal/sim",
	"internal/graph",
	"internal/delay",
	"internal/model",
	"internal/genfuzz",
	"internal/trace",
	"internal/drift",
	"internal/round",
	"cmd/genfuzz",
}

// wallclockFuncs are the time functions that read or wait on the wall
// clock. Pure time.Time/time.Duration arithmetic stays legal.
var wallclockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// WallClock forbids wall-clock reads in the deterministic packages.
var WallClock = &Analyzer{
	Name: "wallclock",
	Doc: "forbid time.Now/Since/Sleep/After and friends in the deterministic packages " +
		"(internal/core, internal/sim, internal/graph, internal/delay, internal/model); " +
		"simulated executions must be replayable, so wall-clock access goes through an " +
		"injected obs.Clock (core.Options.Clock)",
	Run: runWallClock,
}

func runWallClock(p *Pass) error {
	if !pkgMatches(p.Pkg.Path(), wallclockPkgs) {
		return nil
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if name := pkgSelector(p.TypesInfo, sel, "time"); wallclockFuncs[name] {
				p.Reportf(sel.Pos(),
					"time.%s reads the wall clock inside deterministic package %s, breaking execution replay; inject an obs.Clock (core.Options.Clock) instead",
					name, p.Pkg.Path())
			}
			return true
		})
	}
	return nil
}

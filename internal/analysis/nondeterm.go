package analysis

import (
	"go/ast"
	"go/types"
)

// NonDeterm forbids the three classic nondeterminism sources inside the
// cycle-level simulation packages:
//
//   - wall-clock reads (time.Now and friends): simulated time is the cycle
//     counter; real time differs across runs and machines;
//   - the global math/rand generator: it is seeded per process, shared
//     across goroutines and not controlled by config.Seed — every random
//     draw in the simulator must flow from an explicitly seeded source
//     (rand.New / the workload PRNG);
//   - goroutine spawning: concurrency inside a cycle makes event order
//     scheduler-dependent. Parallelism belongs in the harness, across
//     runs (DESIGN.md §9).
var NonDeterm = &Analyzer{
	Name: "nondeterm",
	Doc:  "wall-clock, global math/rand and goroutines in sim hot paths",
	Run:  runNonDeterm,
}

// wallClockFuncs are the time package functions that read or schedule on
// the wall clock.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Tick": true,
	"After": true, "AfterFunc": true, "NewTicker": true, "NewTimer": true,
	"Sleep": true,
}

// seededRandFuncs are the math/rand constructors that return explicitly
// seeded generators; every other package-level rand function draws from
// the shared global source.
var seededRandFuncs = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true,
	"NewChaCha8": true,
}

func runNonDeterm(pass *Pass) {
	if !inSimState(pass.Pkg) {
		return
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(),
					"goroutine spawned in simulation package %s: cycle-level event order must not depend on the scheduler; parallelise in the harness, across runs",
					pass.Pkg.Types.Name())
			case *ast.SelectorExpr:
				pkgPath, name, ok := qualifiedRef(pass, n)
				if !ok {
					return true
				}
				switch {
				case pkgPath == "time" && wallClockFuncs[name]:
					pass.Reportf(n.Pos(),
						"time.%s in simulation package %s: simulated time is the cycle counter, wall-clock reads are nondeterministic",
						name, pass.Pkg.Types.Name())
				case (pkgPath == "math/rand" || pkgPath == "math/rand/v2") && !seededRandFuncs[name]:
					pass.Reportf(n.Pos(),
						"global rand.%s in simulation package %s: draws bypass config.Seed; use an explicitly seeded rand.New(rand.NewSource(seed))",
						name, pass.Pkg.Types.Name())
				}
			}
			return true
		})
	}
}

// qualifiedRef resolves pkg.Func selector references to (import path,
// name); ok is false for field/method selections and for type references
// like time.Time or rand.Rand.
func qualifiedRef(pass *Pass, sel *ast.SelectorExpr) (string, string, bool) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", "", false
	}
	pn, ok := pass.Pkg.Info.Uses[id].(*types.PkgName)
	if !ok {
		return "", "", false
	}
	if _, isFunc := pass.Pkg.Info.Uses[sel.Sel].(*types.Func); !isFunc {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

package analysis

import (
	"go/ast"
	"go/types"
)

// SkipContract is the static guard of the sleeping contract (DESIGN.md §10,
// §11): every component that mutates simulated state on a per-cycle basis
// and may sleep must advertise its future events and reproduce its
// per-cycle writes in closed form, or the event-driven engine will sleep
// through state changes it was never told about.
//
// Two layers are enforced in the simulation-state packages, both over the
// methods a type DECLARES itself (embedding-promoted methods deliberately do
// not count):
//
//   - Declaration. A type that declares OnCycle does per-cycle work, so it
//     must declare its own NextEvent AND SkipCycles. The dangerous case is a
//     scheme embedding BasePolicy, overriding OnCycle with real window logic,
//     and silently inheriting the base's permanently-quiescent NextEvent: the
//     promoted methods make it compile, and the first sleeping run jumps
//     its window boundaries. A type that declares TickEach is a sleeping
//     engine queue (the DRAM), so it must declare NextEvent: its contents
//     decide when it may next sleep. DeliverEach queues (the interconnect
//     links) are drained on every ticked cycle and never sleep, so they owe
//     no advertisement.
//   - Closure. When a type declares both members of a (per-cycle mutator,
//     closed-form skip) pair, every receiver field the mutator writes —
//     transitively through same-package calls — must also be written by the
//     skip method, or carry a //lbvet:eventbound justification (on the
//     field, or on a mutating helper method that only runs at advertised
//     event boundaries). This is the fused-wake bug class made
//     un-writable: a policy that flips an issue gate in OnCycle but forgets
//     it in SkipCycles fails the build instead of waiting for the
//     event-lower-bound property test to catch it at run time.
//
// Checked closure pairs:
//
//	OnCycle  / SkipCycles   (sim.SMPolicy per-cycle hook)
//	TickEach / Skip         (ticked engine queues)
//	Tick     / Skip
var SkipContract = &Analyzer{
	Name: "skipcontract",
	Doc:  "per-cycle mutators that do not declare NextEvent/SkipCycles, or whose writes SkipCycles/Skip does not reproduce",
	Run:  runSkipContract,
}

// skipPairs lists (per-cycle mutator, closed-form skip) method pairs.
var skipPairs = [][2]string{
	{"OnCycle", "SkipCycles"},
	{"TickEach", "Skip"},
	{"Tick", "Skip"},
}

func runSkipContract(pass *Pass) {
	if !inSimState(pass.Pkg) {
		return
	}

	// Index the methods every package-local type declares itself.
	methods := map[string]map[string]*ast.FuncDecl{} // receiver type -> method -> decl
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || len(fd.Recv.List) != 1 {
				continue
			}
			recv := receiverTypeName(fd.Recv.List[0].Type)
			if recv == "" {
				continue
			}
			if methods[recv] == nil {
				methods[recv] = map[string]*ast.FuncDecl{}
			}
			methods[recv][fd.Name.Name] = fd
		}
	}

	// Emission order is irrelevant: Run sorts the findings into a total order.
	sums := buildSummaries(pass.Fset, pass.Pkg)
	ebFields := eventBoundFields(pass)
	for recv, ms := range methods {
		checkDeclared(pass, recv, ms)
		checkClosed(pass, recv, ms, sums, ebFields[recv])
	}
}

// checkDeclared enforces the declaration layer: a per-cycle mutator declares
// the event-protocol methods itself.
func checkDeclared(pass *Pass, recv string, ms map[string]*ast.FuncDecl) {
	_, hasNext := ms["NextEvent"]
	_, hasSkip := ms["SkipCycles"]
	if fd, ok := ms["OnCycle"]; ok {
		switch {
		case !hasNext && !hasSkip:
			pass.Reportf(fd.Name.Pos(),
				"%s declares OnCycle but neither NextEvent nor SkipCycles: its per-cycle work is invisible to the cycle-skipping engine",
				recv)
		case !hasNext:
			pass.Reportf(fd.Name.Pos(),
				"%s declares OnCycle but no NextEvent: the engine cannot know when its per-cycle work next changes state",
				recv)
		case !hasSkip:
			pass.Reportf(fd.Name.Pos(),
				"%s declares OnCycle but no SkipCycles: any per-cycle accrual it maintains is lost across skipped spans",
				recv)
		}
	}
	if fd, ok := ms["TickEach"]; ok && !hasNext {
		pass.Reportf(fd.Name.Pos(),
			"%s declares TickEach but no NextEvent: a ticked queue must advertise when its contents next move",
			recv)
	}
}

// checkClosed enforces the closure layer: every field a per-cycle mutator
// writes is reproduced by its skip method or justified //lbvet:eventbound.
func checkClosed(pass *Pass, recv string, ms map[string]*ast.FuncDecl, sums map[*types.Func]*funcSummary, ebFields map[string]bool) {
	summary := func(name string) *funcSummary {
		fd := ms[name]
		if fd == nil {
			return nil
		}
		obj, _ := pass.Pkg.Info.Defs[fd.Name].(*types.Func)
		return sums[obj]
	}
	// Dedupe by (skip method, field): TickEach and Tick share a Skip, and a
	// field both forget should be reported once.
	reported := map[[2]string]bool{}
	for _, pair := range skipPairs {
		mut, skip := summary(pair[0]), summary(pair[1])
		if mut == nil || skip == nil || mut.eventBound {
			continue
		}
		if mut.boundedRecvW && !skip.closedRecvW {
			pass.Reportf(mut.decl.Name.Pos(),
				"%s.%s writes through the whole receiver, so its write set cannot be closed against %s; replace the opaque write or restructure it into named-field writes",
				recv, pair[0], pair[1])
			continue
		}
		if skip.closedRecvW {
			continue
		}
		for f, origin := range mut.boundedFieldW {
			if _, ok := skip.closedFieldW[f]; ok || ebFields[f] {
				continue
			}
			key := [2]string{pair[1], f}
			if reported[key] {
				continue
			}
			reported[key] = true
			via := ""
			if origin.via != "" {
				via = " (via " + origin.via + ")"
			}
			pass.Reportf(origin.pos,
				"%s.%s writes field %q%s but %s does not reproduce it: a skipped span silently loses the update — write it in %s or justify the field or mutating helper with //lbvet:eventbound (DESIGN.md §11)",
				recv, pair[0], f, via, pair[1], pair[1])
		}
	}
}

// eventBoundFields collects, per receiver type, the struct fields carrying
// a //lbvet:eventbound directive (the field-level escape hatch: the field
// only changes at cycles NextEvent advertises).
func eventBoundFields(pass *Pass) map[string]map[string]bool {
	out := map[string]map[string]bool{}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, field := range st.Fields.List {
					if !pass.Pkg.eventBoundAt(pass.Fset, field) {
						continue
					}
					if out[ts.Name.Name] == nil {
						out[ts.Name.Name] = map[string]bool{}
					}
					for _, name := range field.Names {
						out[ts.Name.Name][name.Name] = true
					}
				}
			}
		}
	}
	return out
}

// receiverTypeName unwraps a method receiver expression to the named type,
// through pointers and generic instantiations.
func receiverTypeName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		case *ast.ParenExpr:
			e = t.X
		default:
			return ""
		}
	}
}

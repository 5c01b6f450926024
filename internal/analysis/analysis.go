// Package analysis is lbvet: a project-specific static-analysis suite that
// enforces the simulator's determinism and accounting rules at compile time.
//
// The runtime verification subsystem (internal/check) catches
// nondeterminism and mis-accounting while a simulation runs; the analyzers
// here reject the *sources* of those bugs before any simulation happens:
//
//   - maprange:     unordered map iteration in simulation-state packages
//   - nondeterm:    wall-clock time, global math/rand and goroutines in the
//     cycle-level hot paths
//   - fingerprint:  config fields invisible to Validate or the harness memo
//     key (the PR-1 memo-aliasing bug, made structural)
//   - statsflow:    counters that are incremented but can never reach
//     ExtraStats/Result
//   - floatsum:     order-sensitive float accumulation over map iteration
//   - nopanic:      panic/log.Fatal/os.Exit in the fault-isolated
//     simulation packages
//   - errflow:      discarded errors and non-%w wrapping in the layers the
//     failure model lives in
//
// The suite is built directly on the stdlib go/ast + go/types toolchain so
// the module stays dependency-free. A run is one straight path: load, run
// the analyzers serially, sort. cmd/lbvet is the command-line driver;
// repo_clean_test.go gates `go test ./...` on a clean repo.
package analysis

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// OrderedDirective is the escape-hatch comment that justifies a map
// iteration: it asserts that iteration order provably cannot leak into any
// simulation decision or reported metric. Use sparingly and always with a
// reason after the directive, e.g.
//
//	//lbvet:ordered max over the set is commutative
const OrderedDirective = "//lbvet:ordered"

// PanicDirective is the escape-hatch comment that justifies a panic in the
// fault-isolated packages (see the nopanic analyzer): it asserts the panic
// marks a caller/engine bug that the harness's recovery barrier turns into
// a *RunError, never an expected run-time condition. Always give the
// reason after the directive, e.g.
//
//	//lbvet:panic unreachable by construction: only the four Kinds exist
const PanicDirective = "//lbvet:panic"

// ErrOKDirective is the escape hatch of the errflow analyzer: it justifies
// one deliberately discarded error value in the harness/cliutil packages —
// typically a best-effort cleanup on a path already returning a more
// important error. Always give the reason after the directive, e.g.
//
//	//lbvet:errok close on the error path; the open error is already returned
const ErrOKDirective = "//lbvet:errok"

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the import path ("github.com/.../internal/sim").
	Path string
	// Dir is the directory the sources were read from.
	Dir string
	// Files holds the parsed non-test sources, sorted by file name.
	Files []*ast.File
	// Types and Info carry the go/types results.
	Types *types.Package
	Info  *types.Info

	// ordered maps file name -> set of lines carrying OrderedDirective.
	ordered map[string]map[int]bool
	// panicOK maps file name -> set of lines carrying PanicDirective.
	panicOK map[string]map[int]bool
	// errOK maps file name -> set of lines carrying ErrOKDirective.
	errOK map[string]map[int]bool
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Pass is the per-run view handed to an analyzer.
type Pass struct {
	Fset *token.FileSet
	// Pkg is the package under analysis (nil for whole-program analyzers).
	Pkg *Package
	// All holds every loaded package; whole-program analyzers walk this.
	All []*Package

	analyzer *Analyzer
	diags    *[]Diagnostic
}

// Analyzer is one lbvet rule.
type Analyzer struct {
	Name string
	Doc  string
	// Whole marks analyzers that need a cross-package view (fingerprint);
	// they run once per load with Pass.Pkg nil.
	Whole bool
	Run   func(*Pass)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e in the package under analysis.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if p.Pkg == nil {
		return nil
	}
	return p.Pkg.Info.TypeOf(e)
}

// Ordered reports whether the node carries an OrderedDirective comment on
// its own line or the line immediately above.
func (p *Pass) Ordered(pkg *Package, n ast.Node) bool {
	pos := p.Fset.Position(n.Pos())
	lines := pkg.ordered[pos.Filename]
	return lines[pos.Line] || lines[pos.Line-1]
}

// PanicAllowed reports whether the node carries a PanicDirective comment on
// its own line or the line immediately above.
func (p *Pass) PanicAllowed(pkg *Package, n ast.Node) bool {
	pos := p.Fset.Position(n.Pos())
	lines := pkg.panicOK[pos.Filename]
	return lines[pos.Line] || lines[pos.Line-1]
}

// errOKAt reports whether the node carries an ErrOKDirective comment on its
// own line or the line immediately above.
func (pkg *Package) errOKAt(fset *token.FileSet, n ast.Node) bool {
	pos := fset.Position(n.Pos())
	lines := pkg.errOK[pos.Filename]
	return lines[pos.Line] || lines[pos.Line-1]
}

// Analyzers returns the full suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		MapRange,
		NonDeterm,
		Fingerprint,
		StatsFlow,
		FloatSum,
		NoPanic,
		ErrFlow,
	}
}

// ByName resolves a comma-separated analyzer list ("maprange,floatsum").
// Duplicate or unknown names are errors.
func ByName(names string) ([]*Analyzer, error) { return Select(names, "") }

// Select resolves the run set from a comma-separated include list (empty
// means the full suite) minus a comma-separated skip list. Unknown names
// and duplicates — in either list — are errors, as is a registry that
// exposes two analyzers under one name.
func Select(names, skip string) ([]*Analyzer, error) {
	return selectFrom(Analyzers(), names, skip)
}

func selectFrom(registry []*Analyzer, names, skip string) ([]*Analyzer, error) {
	byName := map[string]*Analyzer{}
	for _, a := range registry {
		if byName[a.Name] != nil {
			return nil, fmt.Errorf("analyzer registry is corrupt: two analyzers named %q", a.Name)
		}
		byName[a.Name] = a
	}
	splitList := func(list, flag string) ([]string, error) {
		if list == "" {
			return nil, nil
		}
		seen := map[string]bool{}
		var out []string
		for _, n := range strings.Split(list, ",") {
			n = strings.TrimSpace(n)
			if byName[n] == nil {
				return nil, fmt.Errorf("unknown analyzer %q in %s", n, flag)
			}
			if seen[n] {
				return nil, fmt.Errorf("duplicate analyzer %q in %s", n, flag)
			}
			seen[n] = true
			out = append(out, n)
		}
		return out, nil
	}
	include, err := splitList(names, "-analyzers")
	if err != nil {
		return nil, err
	}
	skipped, err := splitList(skip, "-skip")
	if err != nil {
		return nil, err
	}
	skipSet := map[string]bool{}
	for _, n := range skipped {
		skipSet[n] = true
	}
	var out []*Analyzer
	if include == nil {
		for _, a := range registry {
			if !skipSet[a.Name] {
				out = append(out, a)
			}
		}
	} else {
		for _, n := range include {
			if skipSet[n] {
				return nil, fmt.Errorf("analyzer %q both selected and skipped", n)
			}
			out = append(out, byName[n])
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-skip excludes every analyzer")
	}
	return out, nil
}

// Run executes the given analyzers over the loaded packages, one after the
// other, and returns the findings sorted by position. Whole-program
// analyzers run once with Pass.Pkg nil; the rest run once per package.
// Analysis is milliseconds against seconds of loading (DESIGN.md §11), so
// nothing here runs concurrently.
func Run(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		if a.Whole {
			a.Run(&Pass{Fset: fset, All: pkgs, analyzer: a, diags: &diags})
			continue
		}
		for _, pkg := range pkgs {
			a.Run(&Pass{Fset: fset, Pkg: pkg, All: pkgs, analyzer: a, diags: &diags})
		}
	}
	SortDiagnostics(diags)
	return diags
}

// SortDiagnostics orders findings by file, line, column, analyzer, message
// — the total order every lbvet output format uses.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// Relativize rewrites diagnostic file names under root to module-relative,
// slash-separated paths, so goldens, CI logs and SARIF locations are stable
// across machines. Paths outside root are left untouched.
func Relativize(root string, diags []Diagnostic) []Diagnostic {
	out := make([]Diagnostic, len(diags))
	copy(out, diags)
	for i := range out {
		name := out[i].Pos.Filename
		if !filepath.IsAbs(name) {
			continue
		}
		rel, err := filepath.Rel(root, name)
		if err != nil || strings.HasPrefix(rel, "..") {
			continue
		}
		out[i].Pos.Filename = filepath.ToSlash(rel)
	}
	return out
}

// simStatePackages are the cycle-level packages whose state feeds
// simulation decisions: map iteration order and wall-clock inputs there are
// correctness bugs (see DESIGN.md "Why map order is a correctness bug").
var simStatePackages = map[string]bool{
	"sim":     true,
	"cache":   true,
	"schemes": true,
	"icnt":    true,
	"dram":    true,
	"regfile": true,
	"core":    true,
}

// accumulationPackages are where metric reduction happens; float summation
// order there must not depend on map iteration.
var accumulationPackages = map[string]bool{
	"stats":  true,
	"energy": true,
}

func inSimState(pkg *Package) bool     { return simStatePackages[pkg.Types.Name()] }
func inAccumulation(pkg *Package) bool { return accumulationPackages[pkg.Types.Name()] }
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
func isInteger(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// render formats an expression for a diagnostic message.
func render(fset *token.FileSet, n ast.Node) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, n); err != nil {
		return "<expr>"
	}
	return buf.String()
}

// mapType returns the map type ranged/indexed, unwrapping pointers.
func mapType(t types.Type) *types.Map {
	if t == nil {
		return nil
	}
	u := t.Underlying()
	if p, ok := u.(*types.Pointer); ok {
		u = p.Elem().Underlying()
	}
	m, _ := u.(*types.Map)
	return m
}

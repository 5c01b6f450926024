package analysis

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestRepoClean runs the full lbvet suite over the whole module: a new
// determinism or accounting violation anywhere in the tree fails `go test
// ./...` even when the CI lbvet step is bypassed. Fix the finding, sort
// the iteration, or justify it with the matching //lbvet directive — see
// DESIGN.md.
func TestRepoClean(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadPatterns(root, []string{"./..."})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if len(pkgs) < 15 {
		t.Fatalf("analyzed only %d packages; pattern resolution is missing parts of the module", len(pkgs))
	}
	sawSim := false
	for _, p := range pkgs {
		if strings.HasSuffix(p.Path, "/internal/sim") {
			sawSim = true
		}
	}
	if !sawSim {
		t.Fatal("internal/sim not among analyzed packages; scope detection would be vacuous")
	}

	for _, d := range Relativize(root, Run(loader.Fset, pkgs, Analyzers())) {
		t.Errorf("lbvet: %s", d)
	}
}

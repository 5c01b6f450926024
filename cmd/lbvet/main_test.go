package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/linebacker-sim/linebacker/internal/analysis"
)

// TestListAnalyzers: -list prints exactly the registered suite, one
// analyzer per line, in registry order.
func TestListAnalyzers(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-list"}, &out, &errb); err != nil {
		t.Fatalf("run -list: %v", err)
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	want := analysis.Analyzers()
	if len(lines) != len(want) {
		t.Fatalf("-list printed %d line(s), want %d:\n%s", len(lines), len(want), out.String())
	}
	for i, a := range want {
		if name, _, _ := strings.Cut(lines[i], " "); name != a.Name {
			t.Errorf("-list line %d names %q, want %q", i+1, name, a.Name)
		}
	}
}

// TestCleanModule is the happy path: a clean module exits 0 (nil error).
func TestCleanModule(t *testing.T) {
	var out, errb bytes.Buffer
	err := run([]string{"-dir", filepath.Join("testdata", "clean"), "./..."}, &out, &errb)
	if err != nil {
		t.Fatalf("clean module: %v\nstderr: %s", err, errb.String())
	}
	if out.Len() != 0 {
		t.Errorf("clean module printed diagnostics:\n%s", out.String())
	}
}

// maprangeFixture is a module with known maprange findings, used as the
// dirty-module input throughout.
func maprangeFixture() string {
	return filepath.Join("..", "..", "internal", "analysis", "testdata", "src", "maprange")
}

// TestFindingsExitDistinctly: a dirty fixture returns errFindings (exit 1)
// and prints the diagnostics to stdout with module-relative paths.
func TestFindingsExitDistinctly(t *testing.T) {
	var out, errb bytes.Buffer
	err := run([]string{"-dir", maprangeFixture(), "./..."}, &out, &errb)
	if !errors.Is(err, errFindings) {
		t.Fatalf("dirty module: want errFindings, got %v", err)
	}
	if !strings.Contains(out.String(), "maprange") || !strings.Contains(out.String(), "range over map") {
		t.Errorf("diagnostics not printed:\n%s", out.String())
	}
	if strings.Contains(out.String(), string(filepath.Separator)+"testdata"+string(filepath.Separator)) {
		t.Errorf("diagnostics leak absolute paths:\n%s", out.String())
	}
	if !strings.Contains(errb.String(), "finding(s)") {
		t.Errorf("summary not printed to stderr: %s", errb.String())
	}
}

// TestAnalyzerSubset restricts the run to one analyzer.
func TestAnalyzerSubset(t *testing.T) {
	var out, errb bytes.Buffer
	// nondeterm has nothing to say about the maprange fixture.
	if err := run([]string{"-dir", maprangeFixture(), "-analyzers", "nondeterm", "./..."}, &out, &errb); err != nil {
		t.Fatalf("subset run: %v", err)
	}
}

// TestFormatSARIF checks the SARIF 2.1.0 envelope.
func TestFormatSARIF(t *testing.T) {
	var out, errb bytes.Buffer
	err := run([]string{"-dir", maprangeFixture(), "-format", "sarif", "./..."}, &out, &errb)
	if !errors.Is(err, errFindings) {
		t.Fatalf("want errFindings, got %v", err)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(out.Bytes(), &log); err != nil {
		t.Fatalf("output is not SARIF JSON: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 || log.Runs[0].Tool.Driver.Name != "lbvet" {
		t.Fatalf("bad SARIF envelope: %+v", log)
	}
	if len(log.Runs[0].Results) == 0 {
		t.Fatal("no SARIF results")
	}
	for _, r := range log.Runs[0].Results {
		if r.RuleID != "maprange" || len(r.Locations) != 1 || r.Locations[0].PhysicalLocation.ArtifactLocation.URI == "" {
			t.Errorf("bad SARIF result: %+v", r)
		}
	}
}

// TestErrors covers the non-finding failure modes (exit 2 paths). The
// retired -skip, -format json and baseline flags are usage errors even on
// a clean module.
func TestErrors(t *testing.T) {
	clean := filepath.Join("testdata", "clean")
	emptyBaseline := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(emptyBaseline, []byte("[]\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := [][]string{
		{},                               // no packages
		{"-analyzers", "bogus", "./..."}, // unknown analyzer
		{"-format", "xml", "./..."},      // unknown format
		{"-dir", clean, "-skip", "errflow", "./..."},
		{"-dir", clean, "-format", "json", "./..."},
		{"-dir", clean, "-baseline", emptyBaseline, "./..."},
		{"-dir", clean, "-write-baseline", filepath.Join(t.TempDir(), "out.json"), "./..."},
		{"-dir", clean, "./missing"},                               // bad package path
		{"-dir", filepath.Join("testdata", "missingmod"), "./..."}, // nonexistent directory
		{"-dir", t.TempDir(), "./..."},                             // no go.mod anywhere above
	}
	for _, args := range cases {
		var out, errb bytes.Buffer
		err := run(args, &out, &errb)
		if err == nil || errors.Is(err, errFindings) {
			t.Errorf("run(%q) = %v, want a hard error", args, err)
		}
	}
}

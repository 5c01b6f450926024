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

// TestSkipFlag excludes an analyzer from the full suite, and rejects the
// ambiguous combination of selecting and skipping the same name.
func TestSkipFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-dir", filepath.Join("testdata", "clean"),
		"-skip", "errflow", "./..."}, &out, &errb); err != nil {
		t.Fatalf("-skip errflow on a clean module: %v\n%s", err, out.String())
	}
	err := run([]string{"-dir", filepath.Join("testdata", "clean"),
		"-analyzers", "maprange", "-skip", "maprange", "./..."}, &out, &errb)
	if err == nil || errors.Is(err, errFindings) {
		t.Fatalf("selecting and skipping the same analyzer should be a hard error, got %v", err)
	}
}

// TestFormatJSON checks the machine-readable output.
func TestFormatJSON(t *testing.T) {
	var out, errb bytes.Buffer
	err := run([]string{"-dir", maprangeFixture(), "-format", "json", "./..."}, &out, &errb)
	if !errors.Is(err, errFindings) {
		t.Fatalf("want errFindings, got %v", err)
	}
	var diags []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal(out.Bytes(), &diags); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	if len(diags) == 0 {
		t.Fatal("no JSON diagnostics")
	}
	for _, d := range diags {
		if d.Analyzer != "maprange" || d.Line <= 0 || filepath.IsAbs(d.File) {
			t.Errorf("bad JSON diagnostic: %+v", d)
		}
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

// TestBaselineRoundTrip: -write-baseline accepts the current findings,
// -baseline then suppresses exactly them, and a stale entry is reported.
func TestBaselineRoundTrip(t *testing.T) {
	base := filepath.Join(t.TempDir(), "baseline.json")

	var out, errb bytes.Buffer
	if err := run([]string{"-dir", maprangeFixture(), "-write-baseline", base, "./..."}, &out, &errb); err != nil {
		t.Fatalf("-write-baseline: %v", err)
	}
	if !strings.Contains(errb.String(), "wrote") {
		t.Errorf("no write confirmation: %s", errb.String())
	}

	out.Reset()
	errb.Reset()
	if err := run([]string{"-dir", maprangeFixture(), "-baseline", base, "./..."}, &out, &errb); err != nil {
		t.Fatalf("baselined run should be clean: %v\n%s", err, out.String())
	}
	if !strings.Contains(errb.String(), "suppressed by baseline") {
		t.Errorf("no suppression note: %s", errb.String())
	}

	// A baseline with an entry nothing matches is stale.
	if err := os.WriteFile(base, []byte(`[{"analyzer":"maprange","file":"gone.go","message":"never"}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errb.Reset()
	err := run([]string{"-dir", maprangeFixture(), "-baseline", base, "./..."}, &out, &errb)
	if !errors.Is(err, errFindings) {
		t.Fatalf("unsuppressed findings should still fail: %v", err)
	}
	if !strings.Contains(errb.String(), "stale baseline") {
		t.Errorf("no stale-entry note: %s", errb.String())
	}
}

// TestErrors covers the non-finding failure modes (exit 2 paths).
func TestErrors(t *testing.T) {
	cases := [][]string{
		{},                               // no packages
		{"-analyzers", "bogus", "./..."}, // unknown analyzer
		{"-skip", "bogus", "./..."},      // unknown analyzer in -skip
		{"-format", "xml", "./..."},      // unknown format
		{"-dir", filepath.Join("testdata", "clean"), "./missing"},  // bad package path
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

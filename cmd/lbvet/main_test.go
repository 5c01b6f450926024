package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestListAnalyzers covers -list output.
func TestListAnalyzers(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-list"}, &out, &errb); err != nil {
		t.Fatalf("run -list: %v", err)
	}
	for _, name := range []string{"maprange", "nondeterm", "fingerprint", "statsflow", "floatsum", "skipclosure", "errflow"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing %q:\n%s", name, out.String())
		}
	}
}

// TestCleanModule is the happy path: a clean module exits 0 (nil error).
func TestCleanModule(t *testing.T) {
	var out, errb bytes.Buffer
	err := run([]string{"-dir", filepath.Join("testdata", "clean"), "-cache-dir", t.TempDir(), "./..."}, &out, &errb)
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
	err := run([]string{"-dir", maprangeFixture(), "-cache-dir", t.TempDir(), "./..."}, &out, &errb)
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
	if err := run([]string{"-dir", maprangeFixture(), "-cache-dir", t.TempDir(), "-analyzers", "nondeterm", "./..."}, &out, &errb); err != nil {
		t.Fatalf("subset run: %v", err)
	}
}

// TestSkipFlag excludes an analyzer from the full suite, and rejects the
// ambiguous combination of selecting and skipping the same name.
func TestSkipFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-dir", filepath.Join("testdata", "clean"), "-cache-dir", t.TempDir(),
		"-skip", "errflow", "./..."}, &out, &errb); err != nil {
		t.Fatalf("-skip errflow on a clean module: %v\n%s", err, out.String())
	}
	err := run([]string{"-dir", filepath.Join("testdata", "clean"), "-cache-dir", t.TempDir(),
		"-analyzers", "maprange", "-skip", "maprange", "./..."}, &out, &errb)
	if err == nil || errors.Is(err, errFindings) {
		t.Fatalf("selecting and skipping the same analyzer should be a hard error, got %v", err)
	}
}

// TestFormatJSON checks the machine-readable output.
func TestFormatJSON(t *testing.T) {
	var out, errb bytes.Buffer
	err := run([]string{"-dir", maprangeFixture(), "-cache-dir", t.TempDir(), "-format", "json", "./..."}, &out, &errb)
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
	err := run([]string{"-dir", maprangeFixture(), "-cache-dir", t.TempDir(), "-format", "sarif", "./..."}, &out, &errb)
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
	cache := t.TempDir()
	base := filepath.Join(t.TempDir(), "baseline.json")

	var out, errb bytes.Buffer
	if err := run([]string{"-dir", maprangeFixture(), "-cache-dir", cache, "-write-baseline", base, "./..."}, &out, &errb); err != nil {
		t.Fatalf("-write-baseline: %v", err)
	}
	if !strings.Contains(errb.String(), "wrote") {
		t.Errorf("no write confirmation: %s", errb.String())
	}

	out.Reset()
	errb.Reset()
	if err := run([]string{"-dir", maprangeFixture(), "-cache-dir", cache, "-baseline", base, "./..."}, &out, &errb); err != nil {
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
	err := run([]string{"-dir", maprangeFixture(), "-cache-dir", cache, "-baseline", base, "./..."}, &out, &errb)
	if !errors.Is(err, errFindings) {
		t.Fatalf("unsuppressed findings should still fail: %v", err)
	}
	if !strings.Contains(errb.String(), "stale baseline") {
		t.Errorf("no stale-entry note: %s", errb.String())
	}
}

// TestWarmCacheByteIdentical: a warm run serves everything from cache and
// prints byte-identical stdout.
func TestWarmCacheByteIdentical(t *testing.T) {
	cache := t.TempDir()
	var cold, coldErr bytes.Buffer
	err1 := run([]string{"-dir", maprangeFixture(), "-cache-dir", cache, "./..."}, &cold, &coldErr)
	var warm, warmErr bytes.Buffer
	err2 := run([]string{"-dir", maprangeFixture(), "-cache-dir", cache, "./..."}, &warm, &warmErr)
	if !errors.Is(err1, errFindings) || !errors.Is(err2, errFindings) {
		t.Fatalf("want errFindings twice, got %v / %v", err1, err2)
	}
	if !bytes.Equal(cold.Bytes(), warm.Bytes()) {
		t.Errorf("warm output differs from cold:\ncold:\n%s\nwarm:\n%s", cold.String(), warm.String())
	}
	if !strings.Contains(warmErr.String(), "0 loaded") {
		t.Errorf("warm run loaded packages: %s", warmErr.String())
	}
	// -no-cache agrees byte for byte too.
	var nocache, nocacheErr bytes.Buffer
	if err := run([]string{"-dir", maprangeFixture(), "-no-cache", "./..."}, &nocache, &nocacheErr); !errors.Is(err, errFindings) {
		t.Fatalf("-no-cache run: %v", err)
	}
	if !bytes.Equal(cold.Bytes(), nocache.Bytes()) {
		t.Errorf("-no-cache output differs from cached output")
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

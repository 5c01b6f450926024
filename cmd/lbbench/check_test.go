package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/linebacker-sim/linebacker/internal/check"
	"github.com/linebacker-sim/linebacker/internal/config"
	"github.com/linebacker-sim/linebacker/internal/harness"
	"github.com/linebacker-sim/linebacker/internal/serve"
	"github.com/linebacker-sim/linebacker/internal/sim"
)

// tinySpec is sweep20 cut down to one bench: the golden-covered pair S2
// under baseline and Linebacker at the snapshot's run length.
var tinySpec = simSpec{
	base:    harness.BenchConfig,
	windows: 3,
	plan:    func(*config.Config) plan { return pairPlan([]string{"S2"}) },
	pass:    pairPass,
	golden:  true,
	gain:    pairGain,
}

func loadGolden(t *testing.T) *check.Snapshot {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	g, err := check.LoadSnapshot(filepath.Join(root, goldenPath))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func testEnv(golden *check.Snapshot, traced bool) *env {
	return &env{seed: 1, traced: traced, golden: golden, workers: 2, timerNs: timerCost(), minSimPasses: 1}
}

// TestCleanRunReportsEveryDeclaredMetric: a traced run whose checks pass
// reports exactly the metrics declared for its workload.
func TestCleanRunReportsEveryDeclaredMetric(t *testing.T) {
	o := runSim(context.Background(), wSweep, tinySpec, testEnv(loadGolden(t), true))
	if o.failed != 0 {
		t.Fatalf("clean run failed: %v", o.failures)
	}
	if err := o.validate(); err != nil {
		t.Fatal(err)
	}
	if o.layer["trace.overhead"] <= 0 || o.layer["harness.points"] != 2 {
		t.Errorf("traced values: overhead %v, points %v", o.layer["trace.overhead"], o.layer["harness.points"])
	}
}

// TestGoldenMismatchExitsOneAfterPrintingMetrics: a golden snapshot that
// disagrees with the simulator fails the run; the command still prints
// every metric and the result line, then exits 1.
func TestGoldenMismatchExitsOneAfterPrintingMetrics(t *testing.T) {
	golden := loadGolden(t)
	entry := golden.Entries["S2|lb"]
	entry.Cycles++
	golden.Entries["S2|lb"] = entry

	dir := t.TempDir()
	bad := filepath.Join(dir, goldenPath)
	if err := os.MkdirAll(filepath.Dir(bad), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := golden.Save(bad); err != nil {
		t.Fatal(err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	saved := simSpecs[wSweep]
	simSpecs[wSweep] = tinySpec
	defer func() { simSpecs[wSweep] = saved }()

	var out, errOut bytes.Buffer
	code := run([]string{"-workload", wSweep, "-seconds", "1", "-trace", "1"}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit code %d, want 1; stderr: %s", code, errOut.String())
	}
	text := out.String()
	if !strings.Contains(text, `FAIL: S2|Linebacker: differs from golden snapshot entry "S2|lb"`) {
		t.Errorf("golden failure not reported:\n%s", text)
	}
	for _, m := range metrics {
		if !strings.Contains(text, m.name) {
			t.Errorf("metric %s not printed", m.name)
		}
	}
	lines := strings.Split(strings.TrimSpace(text), "\n")
	var r resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if r.Correct || r.Failed != 1 || r.Attempted == 0 {
		t.Errorf("result line = correct %v, failed %d, attempted %d; want one failure", r.Correct, r.Failed, r.Attempted)
	}
}

// TestStrictSkipMismatchCounts: a result that differs from the reference
// in any counter is a failed operation.
func TestStrictSkipMismatchCounts(t *testing.T) {
	g, err := sim.New(harness.BenchConfig(), mustKernel("S2"), sim.Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	g.Run(1000)
	ref := g.Collect()
	perturbed := *ref
	perturbed.RF.BankConflicts++
	o := newOutcome(wFig12)
	pts := []point{baselinePoint("S2"), baselinePoint("S2")}
	checkSame("pass 1", pts, []*sim.Result{ref, &perturbed}, []*sim.Result{ref, ref}, o)
	if o.failed != 1 || o.result(false).Correct {
		t.Errorf("failed = %d (%v), want exactly the perturbed point", o.failed, o.failures)
	}
}

// TestRefusedRequestsCountAsFailed: 429 and 5xx answers are errors and
// are recorded as rejected.
func TestRefusedRequestsCountAsFailed(t *testing.T) {
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/estimate" {
			http.Error(w, "busy", http.StatusTooManyRequests)
			return
		}
		http.Error(w, "broken", http.StatusInternalServerError)
	}))
	defer stub.Close()
	c := newClient(stub.URL)
	defer c.close()
	o := newOutcome(wServe)
	if _, err := c.do(http.MethodPost, "/v1/estimate", serve.EstimateRequest{Bench: "S2"}, nil); err != nil {
		o.fail("estimate: %v", err)
	}
	if _, err := c.stats(); err != nil {
		o.fail("stats: %v", err)
	}
	if _, err := c.sweep(serve.SweepRequest{}, http.StatusAccepted); err != nil {
		o.fail("sweep: %v", err)
	}
	if o.failed != 3 || c.rejected.Load() != 3 {
		t.Errorf("failed %d, rejected %d; want 3 and 3", o.failed, c.rejected.Load())
	}
}

package linebacker

// Machine-readable benchmark trajectory. The Benchmark* wrappers expose the
// benchkit tiers to plain `go test -bench`:
//
//	go test -bench 'Micro' -benchmem .          # hot-path tier
//	go test -bench 'Macro' -benchtime=1x .      # one full Fig. 12 bench run
//
// TestBenchTrajectory runs the same bodies through testing.Benchmark and
// writes the results as JSON (the BENCH_PR4.json artifact):
//
//	go test -run TestBenchTrajectory -benchjson BENCH_PR4.json .
//	go test -run TestBenchTrajectory -benchjson BENCH_PR4.json \
//	    -benchbaseline baseline.json -benchlabel PR4 .
//
// -benchbaseline merges a previous emission's "current" section in as
// "baseline", so one artifact carries both sides of a before/after
// comparison. testing.Benchmark honours -benchtime, so CI smoke runs use
// -benchtime=1x (compile + sanity, not timing).

import (
	"encoding/json"
	"flag"
	"os"
	"runtime"
	"testing"

	"github.com/linebacker-sim/linebacker/internal/benchkit"
	"github.com/linebacker-sim/linebacker/internal/harness"
	"github.com/linebacker-sim/linebacker/internal/sim"
	"github.com/linebacker-sim/linebacker/internal/workload"
)

var (
	benchJSONOut  = flag.String("benchjson", "", "write machine-readable benchmark results to this file")
	benchBaseline = flag.String("benchbaseline", "", "merge this previous -benchjson emission as the baseline section")
	benchLabel    = flag.String("benchlabel", "dev", "label for the current emission (e.g. pre-PR4, PR4)")
)

// Micro tier: the per-cycle hot paths.
func BenchmarkMicroCacheLoad(b *testing.B)  { benchkit.CacheLoad(b) }
func BenchmarkMicroCacheStore(b *testing.B) { benchkit.CacheStore(b) }
func BenchmarkMicroGPUStep(b *testing.B)    { benchkit.GPUStep(b) }
func BenchmarkMicroIcntLink(b *testing.B)   { benchkit.IcntLink(b) }

// Macro tier: one full Figure 12 bench run (S2 through the figure's policy
// set on a fresh runner).
func BenchmarkMacroFig12Bench(b *testing.B) { benchkit.MacroFig12Bench(b) }

// Run-mode tier: the same macro under strict per-cycle ticking, and on the
// full Table 1 paper machine in both modes (DESIGN.md §10). The paper pair
// carries the headline strict/skip ratio — the 4-SM fast config is nearly
// issue-saturated and skips little by construction.
func BenchmarkMacroFig12Strict(b *testing.B)      { benchkit.MacroFig12BenchStrict(b) }
func BenchmarkMacroFig12Paper(b *testing.B)       { benchkit.MacroFig12PaperBench(false)(b) }
func BenchmarkMacroFig12PaperStrict(b *testing.B) { benchkit.MacroFig12PaperBench(true)(b) }

// Twin tier: one in-envelope analytical estimate on a pre-calibrated model
// versus the cycle-level run that answers the same question. Their ratio is
// the artifact's twin_speedup — the factor the interactive tier buys.
func BenchmarkTwinQuery(b *testing.B)    { benchkit.TwinQuery(b) }
func BenchmarkTwinPointSim(b *testing.B) { benchkit.TwinPointSim(b) }

// benchMetrics is one benchmark's record in the JSON artifact.
type benchMetrics struct {
	NsPerOp         float64 `json:"ns_per_op"`
	AllocsPerOp     int64   `json:"allocs_per_op"`
	BytesPerOp      int64   `json:"bytes_per_op"`
	Iterations      int     `json:"iterations"`
	SimCyclesPerSec float64 `json:"sim_cycles_per_sec,omitempty"`
}

// benchSection is one side (baseline or current) of the artifact.
type benchSection struct {
	Label   string                  `json:"label"`
	Benches map[string]benchMetrics `json:"benches"`
}

// benchFile is the BENCH_PR4.json schema. SkipRatios (added with the
// cycle-skipping engine) records, per Table 2 benchmark, the fraction of
// SM-cycles a skipping run serviced through the closed-form sleep path on
// the paper machine — the structural explanation for the runmode/ tier's
// wall-clock gap.
type benchFile struct {
	Schema     string             `json:"schema"`
	Go         string             `json:"go"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Baseline   *benchSection      `json:"baseline,omitempty"`
	Current    benchSection       `json:"current"`
	SkipRatios map[string]float64 `json:"skip_ratios,omitempty"`
	// TwinSpeedup is twin/point_sim ns_per_op over twin/estimate_query
	// ns_per_op: how many times cheaper one in-envelope analytical estimate
	// is than the cycle-level run answering the same question.
	TwinSpeedup float64 `json:"twin_speedup,omitempty"`
}

// trajectoryTiers maps artifact bench names to their bodies. GPUStep's op is
// one simulated cycle, so it additionally reports sim-cycles/sec.
var trajectoryTiers = []struct {
	name      string
	body      func(*testing.B)
	simCycles bool
}{
	{"micro/cache_load", benchkit.CacheLoad, false},
	{"micro/cache_store", benchkit.CacheStore, false},
	{"micro/gpu_step", benchkit.GPUStep, true},
	{"micro/icnt_link", benchkit.IcntLink, false},
	{"macro/fig12_bench", benchkit.MacroFig12Bench, false},
	{"runmode/fig12_strict", benchkit.MacroFig12BenchStrict, false},
	{"runmode/fig12_paper_skipping", benchkit.MacroFig12PaperBench(false), false},
	{"runmode/fig12_paper_strict", benchkit.MacroFig12PaperBench(true), false},
	{"twin/estimate_query", benchkit.TwinQuery, false},
	{"twin/point_sim", benchkit.TwinPointSim, false},
}

// TestBenchTrajectory emits the benchmark trajectory artifact. Skipped
// unless -benchjson names an output file.
func TestBenchTrajectory(t *testing.T) {
	if *benchJSONOut == "" {
		t.Skip("no -benchjson output file given")
	}
	out := benchFile{
		Schema:     "linebacker-bench/v1",
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Current:    benchSection{Label: *benchLabel, Benches: map[string]benchMetrics{}},
	}
	if *benchBaseline != "" {
		data, err := os.ReadFile(*benchBaseline)
		if err != nil {
			t.Fatalf("reading baseline: %v", err)
		}
		var prev benchFile
		if err := json.Unmarshal(data, &prev); err != nil {
			t.Fatalf("parsing baseline %s: %v", *benchBaseline, err)
		}
		out.Baseline = &benchSection{Label: prev.Current.Label, Benches: prev.Current.Benches}
	}
	for _, tier := range trajectoryTiers {
		res := testing.Benchmark(tier.body)
		m := benchMetrics{
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
			Iterations:  res.N,
		}
		if tier.simCycles && m.NsPerOp > 0 {
			m.SimCyclesPerSec = 1e9 / m.NsPerOp
		}
		out.Current.Benches[tier.name] = m
		t.Logf("%-22s %12.1f ns/op %8d allocs/op %10d B/op (n=%d)",
			tier.name, m.NsPerOp, m.AllocsPerOp, m.BytesPerOp, m.Iterations)
	}
	query, sim1 := out.Current.Benches["twin/estimate_query"], out.Current.Benches["twin/point_sim"]
	if query.NsPerOp > 0 && sim1.NsPerOp > 0 {
		out.TwinSpeedup = sim1.NsPerOp / query.NsPerOp
		t.Logf("twin speedup: one estimate is %.0fx cheaper than its cycle-level run", out.TwinSpeedup)
	}
	out.SkipRatios = map[string]float64{}
	for _, bench := range workload.Names() {
		ratio, err := benchkit.SkipRatio(harness.PaperConfig(), bench, sim.Baseline{}, 4)
		if err != nil {
			t.Fatalf("skip ratio %s: %v", bench, err)
		}
		out.SkipRatios[bench] = ratio
		t.Logf("skip ratio %-4s %5.1f%%", bench, 100*ratio)
	}
	data, err := json.MarshalIndent(&out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(*benchJSONOut, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", *benchJSONOut)
}

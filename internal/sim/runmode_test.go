package sim_test

import (
	"context"
	"runtime"
	"sort"
	"testing"
	"time"

	"github.com/linebacker-sim/linebacker/internal/core"
	"github.com/linebacker-sim/linebacker/internal/harness"
	"github.com/linebacker-sim/linebacker/internal/sim"
	"github.com/linebacker-sim/linebacker/internal/workload"
)

// TestSkipBeatsStrictMacroSmoke is the wall-clock acceptance gate of per-SM
// sleeping, sized for CI: on the memory-starved Table 1 machine most
// SM-cycles are provably idle, so the sleeping engine must regenerate a
// Figure 12 smoke slice (S2 under baseline and Linebacker) no slower than
// strict ticking. The assertion is deliberately conservative (sleeping
// must not be slower than strict) so shared-runner noise cannot flake the
// job, while still catching the real regression mode — a pinned event (a
// component advertising the next cycle forever) silently degrading every
// run to strict speed, which shows up as a ratio near or below 1.0 AND a
// small slept share. The ratio is the median over five interleaved
// strict/sleeping pairs, each run starting from a fresh garbage
// collection: the margin is about 1.2x on a 2-vCPU host, because strict
// mode answers idle scheduler calls from the issue stage's wake bound in
// O(1) too, and there single pairs read as low as 0.93x.
//
// The race detector's instrumentation, not the engine, would set the
// ratio, so a race build skips the gate.
func TestSkipBeatsStrictMacroSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock comparison; skipped in -short")
	}
	if raceEnabled {
		t.Skip("wall-clock comparison; the race detector's overhead would set the ratio")
	}
	const bench = "S2"
	run := func(strict bool) time.Duration {
		cfg := harness.PaperConfig()
		cfg.Strict = strict
		r := harness.NewRunner(cfg, 4)
		runtime.GC() // do not bill this run for the previous one's garbage
		start := time.Now()
		if _, err := r.Run(context.Background(), bench, sim.Baseline{}); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(context.Background(), bench, core.New()); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	// Interleave a warmup of each mode so neither side pays one-time costs.
	run(true)
	run(false)
	ratios := make([]float64, 5)
	for i := range ratios {
		strict := run(true)
		skip := run(false)
		ratios[i] = float64(strict) / float64(skip)
		t.Logf("paper-config macro smoke, pair %d: strict=%v sleeping=%v speedup=%.2fx", i+1, strict, skip, ratios[i])
	}
	sort.Float64s(ratios)
	ratio := ratios[len(ratios)/2]
	t.Logf("median speedup %.2fx", ratio)

	// The structural half of the gate: the smoke slice must actually sleep
	// a large share of its SM-cycles — wall-clock could be masked by
	// noise, a zero slept share cannot.
	cfg := harness.PaperConfig()
	b, ok := workload.ByName(bench)
	if !ok {
		t.Fatalf("workload %s not found", bench)
	}
	g, err := sim.New(cfg, b.Kernel, sim.Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	end := g.Run(4 * int64(cfg.LB.WindowCycles))
	slept := float64(g.SleptSMCycles()) / float64(end*int64(cfg.GPU.NumSMs))
	t.Logf("baseline %s slept SM-cycles: %.1f%%", bench, 100*slept)
	if slept < 0.10 {
		t.Errorf("slept SM-cycles %.1f%% below 10%%: the engine is not finding the machine's idle cycles", 100*slept)
	}
	if ratio < 1.0 {
		t.Errorf("sleeping slower than strict (median speedup %.2fx over %d pairs, %v): computing wakes is costing more than sleeping saves",
			ratio, len(ratios), ratios)
	}
}

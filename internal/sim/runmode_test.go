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

// TestSkipBeatsStrictMacroSmoke is the wall-clock acceptance gate of LSU
// parking, sized for CI: on the memory-starved Table 1 machine most
// SM-cycles find the LSU stalled at its head on a full MSHR, so the default
// engine, which parks the LSU until the next fill, must regenerate a
// Figure 12 smoke slice (S2 under baseline and Linebacker) no slower than
// strict, which re-derives the stall every cycle. Both modes tick every SM
// in every cycle and answer idle scheduler calls from the issue stage's
// wake bound, so the park is the whole difference. The assertion is
// deliberately conservative (the default engine must not be slower than
// strict) so shared-runner noise cannot flake the job, while still
// catching the real regression mode — a park that never holds, silently
// degrading every run to strict speed, which shows up as a ratio near or
// below 1.0 although most SM-cycles stall. The ratio is the median over
// five interleaved strict/default pairs, each run starting from a fresh
// garbage collection: the margin is about 1.3x on a 2-vCPU host.
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
		t.Logf("paper-config macro smoke, pair %d: strict=%v default=%v speedup=%.2fx", i+1, strict, skip, ratios[i])
	}
	sort.Float64s(ratios)
	ratio := ratios[len(ratios)/2]
	t.Logf("median speedup %.2fx", ratio)

	// The structural half of the gate: the smoke slice's LSUs must stall at
	// their head in a large share of its SM-cycles, the cycles a park
	// covers — wall-clock could be masked by noise, a zero stall share
	// cannot. A stalled head counts one MSHR stall per SM-cycle, parked or
	// not.
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
	stalled := float64(g.Collect().L1.MSHRStalls) / float64(end*int64(cfg.GPU.NumSMs))
	t.Logf("baseline %s LSU-stalled SM-cycles: %.1f%%", bench, 100*stalled)
	if stalled < 0.10 {
		t.Errorf("LSU-stalled SM-cycles %.1f%% below 10%%: the smoke slice no longer gives the park anything to cover", 100*stalled)
	}
	if ratio < 1.0 {
		t.Errorf("default engine slower than strict (median speedup %.2fx over %d pairs, %v): parking the LSU is costing more than re-deriving its stall",
			ratio, len(ratios), ratios)
	}
}

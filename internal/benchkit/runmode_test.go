package benchkit

import (
	"context"
	"runtime"
	"sort"
	"testing"
	"time"

	"github.com/linebacker-sim/linebacker/internal/core"
	"github.com/linebacker-sim/linebacker/internal/harness"
	"github.com/linebacker-sim/linebacker/internal/sim"
)

// TestSkipBeatsStrictMacroSmoke is the wall-clock acceptance gate of the
// cycle-skipping engine, sized for CI: on the memory-starved Table 1
// machine most SM-cycles are provably idle, so the event-driven loop must
// regenerate a Figure 12 smoke slice faster than strict ticking. The
// assertion is deliberately conservative (skipping must not be slower than
// strict) so shared-runner noise cannot flake the job, while still catching
// the real regression mode — a pinned event (a component returning `now`
// forever) silently degrading every run to strict speed, which shows up as
// a ratio near or below 1.0 AND a zero skip ratio. The ratio is the median
// over five interleaved strict/skip pairs, each run starting from a fresh
// garbage collection: the margin is about 1.2x on a 2-vCPU host, because
// strict mode answers idle scheduler calls from the issue stage's wake
// bound in O(1) too, and there single pairs read as low as 0.93x.
func TestSkipBeatsStrictMacroSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock comparison; skipped in -short")
	}
	run := func(strict bool) time.Duration {
		cfg := harness.PaperConfig()
		cfg.Strict = strict
		r := harness.NewRunner(cfg, 4)
		runtime.GC() // do not bill this run for the previous one's garbage
		start := time.Now()
		if _, err := r.Run(context.Background(), macroBench, sim.Baseline{}); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(context.Background(), macroBench, core.New()); err != nil {
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
		t.Logf("paper-config macro smoke, pair %d: strict=%v skipping=%v speedup=%.2fx", i+1, strict, skip, ratios[i])
	}
	sort.Float64s(ratios)
	ratio := ratios[len(ratios)/2]
	t.Logf("median speedup %.2fx", ratio)

	// The structural half of the gate: the smoke slice must actually skip
	// a large share of its cycles — wall-clock could be masked by noise,
	// a zero skip ratio cannot.
	ratioSkip, err := SkipRatio(harness.PaperConfig(), macroBench, sim.Baseline{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("baseline %s skip ratio: %.1f%%", macroBench, 100*ratioSkip)
	if ratioSkip < 0.10 {
		t.Errorf("skip ratio %.1f%% below 10%%: the event engine is not finding the machine's idle cycles", 100*ratioSkip)
	}
	if ratio < 1.0 {
		t.Errorf("skipping slower than strict (median speedup %.2fx over %d pairs, %v): event probing is costing more than it saves",
			ratio, len(ratios), ratios)
	}
}

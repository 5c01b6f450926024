package check_test

import (
	"context"
	"strings"
	"testing"

	"github.com/linebacker-sim/linebacker/internal/check"
	"github.com/linebacker-sim/linebacker/internal/harness"
	"github.com/linebacker-sim/linebacker/internal/schemes"
	"github.com/linebacker-sim/linebacker/internal/sim"
	"github.com/linebacker-sim/linebacker/internal/workload"
)

// TestGoldenMetricsSkipMatrix is the bit-identity acceptance matrix of the
// two run modes (DESIGN.md §10): the full golden capture — every Table 2
// benchmark under {baseline, lb} — must equal the committed snapshot in
// both. The snapshot was recorded by a strict engine, so a parked LSU
// that missed a fill, or a park whose stall count drifts from per-cycle
// re-derivation, shows up as an exact-integer diff against it.
func TestGoldenMetricsSkipMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("skip matrix runs all 20 benchmarks per run mode; skipped in -short")
	}
	want, err := check.LoadSnapshot(goldenPath)
	if err != nil {
		t.Fatalf("%v (run TestGoldenMetrics with -update to create the snapshot)", err)
	}

	for _, strict := range []bool{true, false} {
		cfg := harness.BenchConfig()
		cfg.Strict = strict
		got, err := check.Capture(cfg,
			"skip-matrix capture",
			goldenWindows, workload.Names(), check.GoldenSchemes())
		if err != nil {
			t.Fatalf("Strict=%v: %v", strict, err)
		}
		if diffs := want.Compare(got); len(diffs) != 0 {
			t.Errorf("Strict=%v diverged from the golden snapshot:\n%s",
				strict, strings.Join(diffs, "\n"))
		}
	}
}

// TestSkipStateDumpSampled drives a strict and a default machine for the
// same benchmark side by side, pausing both at sampled cycle points and
// comparing full StateDump output. This is stronger than end-of-run Result
// equality: the dumps expose in-flight machine state (warp counters, queue
// depths, per-component stats), so the two runs must agree not just at the
// finish line but at every sampled instant along the way.
//
// Beside the golden schemes it runs a CCWS whose scores decay to zero
// between rankings while warps stay descheduled, so rankings re-admit
// warps from OnCycle: a gating policy under which LSUs still park. Both
// run modes share the scheduler wake bounds, so a missing gate signal
// (SM.GateOpened) would not show here; TestPickWarpMatchesFullScan and
// the issue-bound checker rule catch that.
func TestSkipStateDumpSampled(t *testing.T) {
	benches := []string{"S2", "BC", "SP"}
	if testing.Short() {
		benches = benches[:1]
	}
	pols := check.GoldenSchemes()
	pols["ccws-fast-decay"] = func() sim.Policy {
		return schemes.CCWS{ScoreHit: 2, DecayPerCycle: 0.05, ScorePerDescheduledWarp: 2}
	}
	for _, bench := range benches {
		b, ok := workload.ByName(bench)
		if !ok {
			t.Fatalf("workload %s not found", bench)
		}
		for name, mk := range pols {
			t.Run(bench+"/"+name, func(t *testing.T) {
				strictCfg := harness.BenchConfig()
				strictCfg.Strict = true
				defCfg := harness.BenchConfig()
				defCfg.Strict = false

				gs, err := sim.New(strictCfg, b.Kernel, mk())
				if err != nil {
					t.Fatal(err)
				}
				gk, err := sim.New(defCfg, b.Kernel, mk())
				if err != nil {
					t.Fatal(err)
				}
				ctx := context.Background()
				const step, limit = 10_000, 120_000
				for at := int64(step); at <= limit; at += step {
					cs, err := gs.RunCtx(ctx, at)
					if err != nil {
						t.Fatal(err)
					}
					ck, err := gk.RunCtx(ctx, at)
					if err != nil {
						t.Fatal(err)
					}
					if cs != ck {
						t.Fatalf("cycle divergence at sample %d: strict stopped at %d, default at %d", at, cs, ck)
					}
					ds, dk := gs.StateDump(), gk.StateDump()
					if ds != dk {
						t.Fatalf("state dump divergence at cycle %d:\n--- strict ---\n%s\n--- default ---\n%s",
							cs, ds, dk)
					}
					if cs < at { // both runs completed the grid
						break
					}
				}
				// A parking run parks at its first MSHR stall, so a stall
				// proves the park was exercised.
				if gk.Collect().L1.MSHRStalls == 0 {
					t.Errorf("default run never stalled on a full MSHR, so it never parked; the comparison exercised nothing")
				}
			})
		}
	}
}

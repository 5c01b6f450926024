package sim_test

import (
	"testing"

	"github.com/linebacker-sim/linebacker/internal/core"
	"github.com/linebacker-sim/linebacker/internal/schemes"
	"github.com/linebacker-sim/linebacker/internal/sim"
	"github.com/linebacker-sim/linebacker/internal/workload"
)

// TestPickWarpMatchesFullScan runs strict simulations and, before every
// Step, checks pickWarp against the full-scan oracle on every SM and
// scheduler, and every age list against the alive warps under the MLP
// limit sorted by (seq, idx).
//
// The test policies run on a compute-bound and an MLP-saturating memory
// mix, both grids larger than the SMs' residency, so slots are reused and
// an older CTA ends up in a higher slot than a younger one. The memory mix
// also runs at MLP limits of 3, where its two-line load overshoots the
// limit and a warp rejoins its list only on the second fill, and 1, where
// every load takes a warp off its list; so does S2 under SWL. The production
// gating schemes each open gates in their own hook, which must call
// SM.GateOpened: SWL below residency on grids that drain, so a CTA
// completion admits a throttled CTA with no launch to re-arm the wake
// bound; CCWS re-admitting warps at its ranking boundaries on S2; and
// Linebacker on S2 and BI with windows short enough that a throttled CTA
// is restored. Every gating policy must see calls answered from the wake
// bound while a ready warp was gated off.
func TestPickWarpMatchesFullScan(t *testing.T) {
	compute := func(grid int) *workload.Kernel {
		// The load is predicated off, so the body is four 24-cycle computes.
		return workload.NewKernel("compute",
			[]workload.LoadSpec{{Pattern: workload.Streaming, Scope: workload.PerWarp, Coalesced: 1, Every: 1 << 20}},
			nil, 4, 24, 40, 4, 16, grid)
	}
	memory := func(grid int) *workload.Kernel {
		return workload.NewKernel("memory",
			[]workload.LoadSpec{
				{Pattern: workload.Streaming, Scope: workload.PerWarp, Coalesced: 2},
				{Pattern: workload.Tiled, Scope: workload.PerSM, WorkingSetBytes: 8 * 1024, Coalesced: 1, Phase: 1},
			},
			nil, 1, 2, 30, 4, 16, grid)
	}
	bench := func(name string) *workload.Kernel {
		b, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("workload %s not found", name)
		}
		return b.Kernel
	}
	type point struct {
		k      *workload.Kernel
		pol    sim.Policy
		window int // monitoring window in cycles; 0 keeps the config's
		mlp    int // MaxWarpMLP; 0 keeps the config's
	}
	var points []point
	for _, k := range []*workload.Kernel{compute(48), memory(48)} {
		for _, pol := range sim.GateTestPolicies() {
			points = append(points, point{k: k, pol: pol})
		}
	}
	for _, mlp := range []int{3, 1} {
		for _, pol := range sim.GateTestPolicies() {
			points = append(points, point{k: memory(48), pol: pol, mlp: mlp})
		}
	}
	// A grid of 16 is resident at once on the two SMs and then drains.
	points = append(points,
		point{k: compute(16), pol: schemes.SWL{Limit: 2}},
		point{k: memory(16), pol: schemes.SWL{Limit: 2}},
		point{k: bench("S2"), pol: schemes.SWL{Limit: 2}, mlp: 1},
		point{k: bench("S2"), pol: schemes.CCWS{}},
		point{k: bench("S2"), pol: core.New(), window: 500},
		point{k: bench("BI"), pol: core.New(), window: 1000},
	)

	var total sim.PickWarpTally
	for _, p := range points {
		cfg := sim.SmallConfig()
		cfg.Strict = true
		if p.window > 0 {
			cfg.LB.WindowCycles = p.window
		}
		if p.mlp > 0 {
			cfg.GPU.MaxWarpMLP = p.mlp
		}
		g, err := sim.New(cfg, p.k, p.pol)
		if err != nil {
			t.Fatal(err)
		}
		var tally sim.PickWarpTally
		const maxSteps = 40_000
		for n := 0; n < maxSteps && !g.Done(); n++ {
			for _, sm := range g.SMs() {
				if err := sim.CheckPickWarp(sm, g.Cycle(), &tally); err != nil {
					t.Fatalf("%s/%s mlp %d: %v", p.k.Name, p.pol.Name(), cfg.GPU.MaxWarpMLP, err)
				}
			}
			g.Step()
		}
		extra := g.Collect().Extra
		t.Logf("%s/%s mlp %d: %d cycles, %d bound answers (%d with a ready warp gated off), %d gated failures, %d inverted cycles, %g reactivations",
			p.k.Name, p.pol.Name(), cfg.GPU.MaxWarpMLP, g.Cycle(), tally.Fast, tally.GatedFast, tally.Gated, tally.Inverted, extra["lb_reactivations"])
		if _, ungated := p.pol.(sim.Baseline); !ungated && tally.GatedFast == 0 {
			t.Errorf("%s/%s mlp %d: the wake bound never answered while a ready warp was gated off", p.k.Name, p.pol.Name(), cfg.GPU.MaxWarpMLP)
		}
		if _, lb := p.pol.(*core.Policy); lb && extra["lb_reactivations"] == 0 {
			t.Errorf("%s/%s: no throttled CTA was restored, so finishRestore's gate signal went untested", p.k.Name, p.pol.Name())
		}
		total.Fast += tally.Fast
		total.Gated += tally.Gated
		total.Inverted += tally.Inverted
	}
	if total.Inverted == 0 {
		t.Error("no older CTA ever sat in a higher slot than a younger one; slot order and age order never differed")
	}
	if total.Fast == 0 {
		t.Error("the wake bound never answered a call")
	}
	if total.Gated == 0 {
		t.Error("no failed call ever had a ready warp gated off")
	}
}

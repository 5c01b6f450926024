package sim_test

import (
	"testing"

	"github.com/linebacker-sim/linebacker/internal/check"
	"github.com/linebacker-sim/linebacker/internal/sim"
	"github.com/linebacker-sim/linebacker/internal/workload"
)

// TestLSUParkRule holds the checker's lsu-park rule to both sides of its
// contract. A memory-starved default run must park its LSUs and pass the
// rule after every cycle; a park the L1 does not justify, forced onto an
// LSU whose head could move, must fail it.
func TestLSUParkRule(t *testing.T) {
	var rule check.Rule
	for _, r := range check.EngineRules() {
		if r.Name == "lsu-park" {
			rule = r
		}
	}
	if rule.Check == nil {
		t.Fatal("check.EngineRules has no lsu-park rule")
	}
	b, ok := workload.ByName("BI")
	if !ok {
		t.Fatal("workload BI not found")
	}

	g, err := sim.New(sim.SmallConfig(), b.Kernel, sim.Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	parked := 0
	countParks := check.Rule{Name: "count-parks", Check: func(g *sim.GPU) error {
		for _, sm := range g.SMs() {
			if sm.Parked() {
				parked++
			}
		}
		return nil
	}}
	g.SetChecker(check.New(check.WithRules([]check.Rule{countParks, rule})))
	g.Run(20_000)
	t.Logf("%d parked SM-cycles in %d cycles", parked, g.Cycle())
	if parked == 0 {
		t.Fatal("the default run never parked an LSU, so the rule was never exercised")
	}

	// Stepped by hand the engine never parks, so an LSU holding a load has
	// a head that can still move until its MSHRs fill.
	g, err = sim.New(sim.SmallConfig(), b.Kernel, sim.Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	sm := g.SMs()[0]
	for sm.PendingLoadOps() == 0 {
		if g.Cycle() > 1000 {
			t.Fatal("SM 0 queued no load in 1000 cycles")
		}
		g.Step()
	}
	if err := rule.Check(g); err != nil {
		t.Fatalf("cycle %d, before the forced park: %v", g.Cycle(), err)
	}
	sm.ForcePark()
	err = rule.Check(g)
	if err == nil {
		t.Fatalf("cycle %d: a park forced on a movable head passed the lsu-park rule", g.Cycle())
	}
	t.Logf("forced park at cycle %d: %v", g.Cycle(), err)
}

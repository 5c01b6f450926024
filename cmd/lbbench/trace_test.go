package main

import (
	"context"
	"testing"
	"time"

	"github.com/linebacker-sim/linebacker/internal/check"
	"github.com/linebacker-sim/linebacker/internal/config"
	"github.com/linebacker-sim/linebacker/internal/harness"
	"github.com/linebacker-sim/linebacker/internal/sim"
)

// dropExtra is a decorator that forgets to forward sim.ExtraStatser: the
// negative control proving the transparency comparison can fail.
type dropExtra struct{ sim.Policy }

func (d dropExtra) Attach(sm *sim.SM) sim.SMPolicy {
	return struct{ sim.SMPolicy }{d.Policy.Attach(sm)}
}

// runPoint simulates one point for one window, letting observe install
// instruments first.
func runPoint(t *testing.T, cfg config.Config, bench string, pol sim.Policy, observe func(*sim.GPU)) (*sim.Result, *sim.GPU) {
	t.Helper()
	g, err := sim.New(cfg, mustKernel(bench), pol)
	if err != nil {
		t.Fatal(err)
	}
	if observe != nil {
		observe(g)
	}
	if _, err := g.RunCtx(context.Background(), int64(cfg.LB.WindowCycles)); err != nil {
		t.Fatal(err)
	}
	return g.Collect(), g
}

// TestTracingIsTransparent: the decorated and observed run gives the plain
// run's result, field for field, and so does the strict replay under the
// stage clock. A decorator that drops the ExtraStatser forward is caught.
func TestTracingIsTransparent(t *testing.T) {
	cfg := harness.BenchConfig()
	strict := cfg
	strict.Strict = true
	for _, p := range []point{baselinePoint("S2"), lbPoint("S2")} {
		plain, _ := runPoint(t, cfg, p.bench, p.policy(), nil)

		var hooks hookStats
		ticks := &tickCounter{}
		traced, g := runPoint(t, cfg, p.bench, tracedPolicy{Policy: p.policy(), st: &hooks},
			func(g *sim.GPU) { g.SetChecker(ticks) })
		if check.MetricsOf(traced) != check.MetricsOf(plain) || !sameResult(traced, plain) {
			t.Errorf("%s: the decorated run differs from the plain run", p)
		}
		if ticks.ticked+g.SkippedCycles() != g.Cycle() {
			t.Errorf("%s: %d ticked + %d skipped != %d cycles", p, ticks.ticked, g.SkippedCycles(), g.Cycle())
		}
		if hooks.calls[gateHooks] == 0 || hooks.timed[cycleHooks] == 0 || hooks.timed[monitorHooks] == 0 {
			t.Errorf("%s: hooks not observed: %+v", p, hooks)
		}

		replay, _ := runPoint(t, strict, p.bench, p.policy(),
			func(g *sim.GPU) { g.SetFaultInjector(newStageClock(0)) })
		if !sameResult(replay, plain) {
			t.Errorf("%s: the strict stage-observed replay differs from the skipping run", p)
		}

		dropped, _ := runPoint(t, cfg, p.bench, dropExtra{p.policy()}, nil)
		if droppedSame := sameResult(dropped, plain); droppedSame != (len(plain.Extra) == 0) {
			t.Errorf("%s: dropping ExtraStats: same result = %v with %d Extra stats", p, droppedSame, len(plain.Extra))
		}
	}
}

func TestStageClockClosesIntervals(t *testing.T) {
	c := newStageClock(0)
	c.Stage(nil, "dispatch", 0)
	time.Sleep(time.Millisecond)
	c.Stage(nil, "dram", 0)
	c.stop(time.Now())
	if c.ns[0] < int64(time.Millisecond) || c.cur != -1 {
		t.Errorf("stage clock = %+v", c)
	}
}

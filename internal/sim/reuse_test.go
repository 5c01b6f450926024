package sim_test

import (
	"reflect"
	"testing"

	"github.com/linebacker-sim/linebacker/internal/chaos"
	"github.com/linebacker-sim/linebacker/internal/check"
	"github.com/linebacker-sim/linebacker/internal/config"
	"github.com/linebacker-sim/linebacker/internal/core"
	"github.com/linebacker-sim/linebacker/internal/harness"
	"github.com/linebacker-sim/linebacker/internal/memtypes"
	"github.com/linebacker-sim/linebacker/internal/schemes"
	"github.com/linebacker-sim/linebacker/internal/sim"
	"github.com/linebacker-sim/linebacker/internal/workload"
)

// TestReuseSequence re-arms one machine through points of different
// shapes and holds each to a machine sim.New builds for the same point:
// the Result must be deep-equal and the StateDump equal, both before the
// run and after it. The sequence moves between the 4-SM benchmark machine
// and the 16-SM Table 1 machine; runs CERF, whose Attach grows the L1,
// between two baseline points; cuts FD off with every DRAM channel's
// backlog several blocks deep and then runs BI; runs PCAL, whose bypasses
// hold MSHR entries with no way, before Linebacker; and follows a run
// under the invariant checker, one with an SM probe and one whose chaos
// injector stalls the DRAM with clean runs, which must see none of those
// hooks. Every run stops at a cycle limit, with requests, fills and
// writebacks in flight.
func TestReuseSequence(t *testing.T) {
	bench, paper := harness.BenchConfig(), harness.PaperConfig()
	seeded := bench
	seeded.Seed = 3
	checked := bench
	checked.Check = true
	stalled := bench
	var err error
	if stalled.Chaos, err = chaos.ParseSpec("stall-dram:2000"); err != nil {
		t.Fatal(err)
	}

	type point struct {
		name   string
		cfg    config.Config
		bench  string
		pol    func() sim.Policy
		cycles int64
		probe  bool // count the SMs' line requests through SM.Probe
	}
	baseline := func() sim.Policy { return sim.Baseline{} }
	points := []point{
		{"bench-S2-baseline-probed", bench, "S2", baseline, 12_500, true},
		{"paper-BI-baseline", paper, "BI", baseline, 6_000, false},
		{"bench-S2-CERF", bench, "S2", func() sim.Policy { return schemes.CERF{} }, 12_500, false},
		{"bench-S2-baseline-seed3", seeded, "S2", baseline, 12_500, false},
		{"paper-FD-baseline", paper, "FD", baseline, 6_000, false},
		{"paper-BI-baseline-again", paper, "BI", baseline, 6_000, false},
		{"bench-S2-PCAL", bench, "S2", func() sim.Policy { return schemes.PCAL{} }, 12_500, false},
		{"bench-S2-linebacker", bench, "S2", func() sim.Policy { return core.New() }, 37_500, false},
		{"bench-S2-baseline-checked", checked, "S2", baseline, 3_000, false},
		{"bench-S2-baseline-after-check", bench, "S2", baseline, 12_500, false},
		{"bench-S2-baseline-stall-dram", stalled, "S2", baseline, 6_000, false},
		{"bench-S2-baseline-after-stall", bench, "S2", baseline, 12_500, false},
	}

	// arm attaches the point's chaos injector, behind a stage counter, and
	// its invariant checker, and returns how many calls the two have taken.
	arm := func(g *sim.GPU, cfg config.Config) (calls func() int64) {
		var stages int64
		if cfg.Chaos.Active() {
			g.SetFaultInjector(countedFaults{chaos.New(cfg.Chaos), &stages})
		}
		var c *check.Checker
		if cfg.Check {
			c = check.Attach(g)
		}
		return func() int64 {
			if c != nil {
				return stages + c.Sweeps()
			}
			return stages
		}
	}
	var g *sim.GPU
	var probed int64 // line requests the probed point's SM.Probe saw
	lastHooks, lastCalls := func() int64 { return 0 }, int64(0)
	for _, p := range points {
		b, ok := workload.ByName(p.bench)
		if !ok {
			t.Fatalf("%s: %s missing from Table 2", p.name, p.bench)
		}
		fresh, err := sim.New(p.cfg, b.Kernel, p.pol())
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		arm(fresh, p.cfg)
		if g == nil {
			g, err = sim.New(p.cfg, b.Kernel, p.pol())
		} else {
			err = g.Reuse(p.cfg, b.Kernel, p.pol())
		}
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		hooks := arm(g, p.cfg)
		if p.probe {
			for _, sm := range g.SMs() {
				sm.Probe = func(int, uint32, memtypes.LineAddr, bool, int64) { probed++ }
			}
		}
		if got, want := g.StateDump(), fresh.StateDump(); got != want {
			t.Fatalf("%s: re-armed machine before the run:\n%s\nnew machine:\n%s", p.name, got, want)
		}

		seen := probed
		g.Run(p.cycles)
		fresh.Run(p.cycles)
		if !p.probe && probed != seen {
			t.Errorf("%s: an earlier point's SM.Probe saw %d line requests", p.name, probed-seen)
		}
		if n := lastHooks() - lastCalls; n != 0 {
			t.Errorf("%s: the previous point's checker and fault injector took %d calls", p.name, n)
		}
		if got, want := g.StateDump(), fresh.StateDump(); got != want {
			t.Errorf("%s: re-armed machine after the run:\n%s\nnew machine:\n%s", p.name, got, want)
		}
		if got, want := g.Collect(), fresh.Collect(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: re-armed result\n%+v\nnew machine's\n%+v", p.name, got, want)
		}
		if got, want := g.DRAM().Stalled(), p.cfg.Chaos.Active(); got != want {
			t.Errorf("%s: DRAM stalled %v at the cut, want %v", p.name, got, want)
		}
		if p.bench == "FD" {
			// The cut must leave the backlogs in use: on average two
			// 255-entry blocks behind each channel's 16-entry window.
			if q, min := g.DRAM().QueueLen(), p.cfg.GPU.DRAMChannels*(16+2*255); q < min {
				t.Errorf("%s: DRAM queues hold %d entries at the cut, want >= %d", p.name, q, min)
			}
		}
		lastHooks, lastCalls = hooks, hooks()
	}
	if probed == 0 {
		t.Error("the probed point's SM.Probe saw no line request")
	}
}

// countedFaults forwards every Step stage to a fault injector and counts
// them.
type countedFaults struct {
	sim.FaultInjector
	n *int64
}

func (c countedFaults) Stage(g *sim.GPU, stage string, cycle int64) {
	*c.n++
	c.FaultInjector.Stage(g, stage, cycle)
}

// Package chaos is a deterministic, seed-driven fault injector for the
// simulator's recovery paths. It implements sim.FaultInjector and, driven
// entirely by config.Chaos, can
//
//   - force a panic the first time a named Step stage executes at or after
//     a given cycle (exercises the harness's per-run panic isolation),
//   - stall the DRAM model so dependent warps livelock (exercises the
//     harness watchdog), and
//   - corrupt a load-outcome counter on one SM (trips the internal/check
//     conservation rules).
//
// Every fault is a pure function of (config.Chaos, stage, cycle), so a
// chaos run is exactly as reproducible as a clean one. The harness memo
// fingerprint covers config.Chaos, so faulted results can never alias clean
// cache entries (see DESIGN.md §7).
package chaos

import (
	"fmt"
	"math/rand/v2"
	"strconv"
	"strings"

	"github.com/linebacker-sim/linebacker/internal/config"
	"github.com/linebacker-sim/linebacker/internal/sim"
)

// Injector applies the faults of one config.Chaos to a running GPU. One
// injector serves one run; each fault fires at most once.
type Injector struct {
	c   config.Chaos
	rng *rand.Rand

	panicked  bool
	stalled   bool
	corrupted bool
}

// New builds an injector for the given chaos configuration.
func New(c config.Chaos) *Injector {
	return &Injector{
		c:   c,
		rng: rand.New(rand.NewPCG(c.Seed, c.Seed^0x9e3779b97f4a7c15)),
	}
}

// Attach installs an injector on the GPU when its configuration arms any
// chaos fault; it is a no-op (and returns nil) otherwise. A Bench-scoped
// chaos config attaches only to runs of the named kernel — the mechanism a
// sweep service uses to fault exactly one point of a many-benchmark
// request while every other point runs fault-free (and, because the chaos
// fields still fingerprint into every memo key, never aliases a clean
// cache entry).
func Attach(g *sim.GPU) *Injector {
	c := g.Config().Chaos
	if !c.Active() {
		return nil
	}
	if c.Bench != "" && g.Kernel().Name != c.Bench {
		return nil
	}
	in := New(c)
	g.SetFaultInjector(in)
	return in
}

// Stage implements sim.FaultInjector.
func (in *Injector) Stage(g *sim.GPU, stage string, cycle int64) {
	c := &in.c
	if c.StallDRAMCycle > 0 && !in.stalled && stage == "dram" && cycle >= c.StallDRAMCycle {
		in.stalled = true
		g.DRAM().SetStalled(true)
	}
	if c.CorruptStatsCycle > 0 && !in.corrupted && stage == "sm" && cycle >= c.CorruptStatsCycle {
		in.corrupted = true
		sms := g.SMs()
		victim := sms[in.rng.IntN(len(sms))]
		// Bump one outcome counter without the matching L1 event: the
		// load-accounting rule's two independent tallies now disagree.
		victim.Stats.LoadReqs[sim.OutHit] += 1 + int64(in.rng.IntN(7))
	}
	if c.PanicCycle > 0 && stage == c.PanicStage && !in.panicked && cycle >= c.PanicCycle {
		in.panicked = true
		panic(fmt.Sprintf("chaos: injected panic in stage %s at cycle %d (seed %d)", stage, cycle, c.Seed))
	}
}

// ParseSpec parses the CLI chaos syntax into a config.Chaos. The spec is a
// comma-separated list of directives:
//
//	panic:<stage>:<cycle>     force a panic in the named Step stage
//	stall-dram:<cycle>        freeze the DRAM model from that cycle on
//	corrupt-stats:<cycle>     corrupt an SM load counter at that cycle
//	bench:<name>              scope every fault to runs of this benchmark
//	seed:<n>                  injector PRNG seed (default 1)
//
// Example: "panic:sm:5000" or "stall-dram:2000,seed:7", or — the sweep
// service's one-victim form — "panic:sm:1000,bench:S2". An empty spec
// returns a disabled Chaos.
func ParseSpec(spec string) (config.Chaos, error) {
	var c config.Chaos
	if spec == "" {
		return c, nil
	}
	c.Enabled = true
	c.Seed = 1
	for _, dir := range strings.Split(spec, ",") {
		parts := strings.Split(dir, ":")
		bad := func() (config.Chaos, error) {
			return config.Chaos{}, fmt.Errorf("chaos: bad directive %q in spec %q", dir, spec)
		}
		switch parts[0] {
		case "panic":
			if len(parts) != 3 {
				return bad()
			}
			cyc, err := strconv.ParseInt(parts[2], 10, 64)
			if err != nil || cyc <= 0 {
				return bad()
			}
			c.PanicStage, c.PanicCycle = parts[1], cyc
		case "stall-dram":
			if len(parts) != 2 {
				return bad()
			}
			cyc, err := strconv.ParseInt(parts[1], 10, 64)
			if err != nil || cyc <= 0 {
				return bad()
			}
			c.StallDRAMCycle = cyc
		case "corrupt-stats":
			if len(parts) != 2 {
				return bad()
			}
			cyc, err := strconv.ParseInt(parts[1], 10, 64)
			if err != nil || cyc <= 0 {
				return bad()
			}
			c.CorruptStatsCycle = cyc
		case "bench":
			if len(parts) != 2 || parts[1] == "" {
				return bad()
			}
			c.Bench = parts[1]
		case "seed":
			if len(parts) != 2 {
				return bad()
			}
			seed, err := strconv.ParseUint(parts[1], 10, 64)
			if err != nil {
				return bad()
			}
			c.Seed = seed
		default:
			return bad()
		}
	}
	// Surface stage typos and empty specs here, with CLI-quality messages.
	cfg := config.Default()
	cfg.Chaos = c
	if err := cfg.Validate(); err != nil {
		return config.Chaos{}, fmt.Errorf("chaos: spec %q: %w", spec, err)
	}
	return c, nil
}

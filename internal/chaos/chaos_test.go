package chaos_test

import (
	"fmt"
	"strings"
	"testing"

	"github.com/linebacker-sim/linebacker/internal/chaos"
	"github.com/linebacker-sim/linebacker/internal/check"
	"github.com/linebacker-sim/linebacker/internal/config"
	"github.com/linebacker-sim/linebacker/internal/sim"
	"github.com/linebacker-sim/linebacker/internal/workload"
)

func chaosConfig(c config.Chaos) config.Config {
	cfg := config.Default()
	cfg.GPU.NumSMs = 2
	cfg.LB.WindowCycles = 2000
	cfg.Chaos = c
	return cfg
}

func chaosKernel() *workload.Kernel {
	return workload.NewKernel("chaos-tiny",
		[]workload.LoadSpec{
			{Pattern: workload.Tiled, Scope: workload.PerSM, WorkingSetBytes: 8 * 1024, Coalesced: 1, Phase: 1},
			{Pattern: workload.Streaming, Scope: workload.PerWarp, Coalesced: 1},
		},
		[]workload.LoadSpec{{Pattern: workload.Streaming, Scope: workload.PerWarp, Coalesced: 1}},
		2, 4, 200, 4, 16, 16)
}

// runRecovering runs the machine and returns the recovered panic message
// ("" if the run finished cleanly) plus the cycle it stopped at.
func runRecovering(t *testing.T, cfg config.Config, maxCycles int64) (msg string, cycle int64) {
	t.Helper()
	g, err := sim.New(cfg, chaosKernel(), sim.Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Check {
		check.Attach(g)
	}
	chaos.Attach(g)
	defer func() {
		if p := recover(); p != nil {
			msg, cycle = fmt.Sprint(p), g.Cycle()
		}
	}()
	return "", g.Run(maxCycles)
}

func TestChaosPanicIsDeterministic(t *testing.T) {
	cfg := chaosConfig(config.Chaos{Enabled: true, Seed: 7, PanicStage: "sm", PanicCycle: 3000})
	msg1, cyc1 := runRecovering(t, cfg, 1_000_000)
	msg2, cyc2 := runRecovering(t, cfg, 1_000_000)
	if msg1 == "" {
		t.Fatal("armed panic fault never fired")
	}
	if msg1 != msg2 || cyc1 != cyc2 {
		t.Fatalf("chaos panic not reproducible: (%q, %d) vs (%q, %d)", msg1, cyc1, msg2, cyc2)
	}
	if !strings.Contains(msg1, "chaos: injected panic in stage sm") {
		t.Fatalf("unexpected panic message %q", msg1)
	}
	if cyc1 < 3000 {
		t.Fatalf("panic fired at cycle %d, before the armed cycle 3000", cyc1)
	}
}

func TestChaosStallDRAMFreezesProgress(t *testing.T) {
	clean := chaosConfig(config.Chaos{})
	g, err := sim.New(clean, chaosKernel(), sim.Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	cleanCycles := g.Run(2_000_000)
	cleanDone := g.Collect().CTACompleted

	cfg := chaosConfig(config.Chaos{Enabled: true, Seed: 1, StallDRAMCycle: 500})
	s, err := sim.New(cfg, chaosKernel(), sim.Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	chaos.Attach(s)
	// Run as long as the clean kernel needed and then some: with DRAM
	// frozen the kernel must not complete.
	s.Run(cleanCycles * 4)
	res := s.Collect()
	if !s.DRAM().Stalled() {
		t.Fatal("DRAM never entered the stalled state")
	}
	if res.CTACompleted >= cleanDone {
		t.Fatalf("stalled run completed %d CTAs (clean run: %d); DRAM stall ineffective",
			res.CTACompleted, cleanDone)
	}
}

func TestChaosCorruptStatsTripsInvariantChecker(t *testing.T) {
	cfg := chaosConfig(config.Chaos{Enabled: true, Seed: 3, CorruptStatsCycle: 2000})
	cfg.Check = true
	msg, _ := runRecovering(t, cfg, 1_000_000)
	if msg == "" {
		t.Fatal("corrupted statistics never tripped the invariant checker")
	}
	if !strings.Contains(msg, "invariant violation") || !strings.Contains(msg, "load-accounting") {
		t.Fatalf("panic did not come from the load-accounting invariant: %q", msg)
	}
}

func TestChaosInactiveIsNoop(t *testing.T) {
	cfg := chaosConfig(config.Chaos{})
	g, err := sim.New(cfg, chaosKernel(), sim.Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	if in := chaos.Attach(g); in != nil {
		t.Fatal("Attach installed an injector with no fault armed")
	}
}

func TestChaosBenchScopeAttachesOnlyToVictim(t *testing.T) {
	// A bench-scoped fault must attach to the named kernel only: this is
	// the single-spec, one-victim mechanism the sweep service relies on to
	// fault 1 of N points of a request.
	armed := config.Chaos{Enabled: true, Seed: 1, PanicStage: "sm", PanicCycle: 100,
		Bench: "chaos-tiny"}
	cfg := chaosConfig(armed)
	g, err := sim.New(cfg, chaosKernel(), sim.Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	if in := chaos.Attach(g); in == nil {
		t.Fatal("Attach skipped the kernel its Bench scope names")
	}

	// Same armed config, different kernel: no injector, and the run is
	// fault-free end to end.
	cfg.Chaos.Bench = "some-other-bench"
	msg, _ := runRecovering(t, cfg, 2000)
	if msg != "" {
		t.Fatalf("bench-scoped fault fired on a non-victim kernel: %s", msg)
	}
}

func TestChaosParseSpec(t *testing.T) {
	good := map[string]config.Chaos{
		"":                    {},
		"panic:sm:5000":       {Enabled: true, Seed: 1, PanicStage: "sm", PanicCycle: 5000},
		"stall-dram:2000":     {Enabled: true, Seed: 1, StallDRAMCycle: 2000},
		"corrupt-stats:900":   {Enabled: true, Seed: 1, CorruptStatsCycle: 900},
		"stall-dram:1,seed:9": {Enabled: true, Seed: 9, StallDRAMCycle: 1},
		"panic:sm:1000,bench:S2": {
			Enabled: true, Seed: 1, PanicStage: "sm", PanicCycle: 1000, Bench: "S2"},
		"panic:dram:10,corrupt-stats:20": {
			Enabled: true, Seed: 1, PanicStage: "dram", PanicCycle: 10, CorruptStatsCycle: 20},
	}
	for spec, want := range good {
		got, err := chaos.ParseSpec(spec)
		if err != nil {
			t.Errorf("ParseSpec(%q) failed: %v", spec, err)
			continue
		}
		if got != want {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", spec, got, want)
		}
	}
	bad := []string{
		"panic:sm",          // missing cycle
		"panic:nowhere:100", // unknown stage
		"panic:sm:-5",       // negative cycle
		"stall-dram:x",      // non-numeric
		"seed:1",            // seed alone arms nothing
		"bogus:1",           // unknown directive
		"panic:sm:100,,",    // empty directive
		"bench:",            // empty bench scope
		"bench:S2",          // scope alone arms nothing
	}
	for _, spec := range bad {
		if _, err := chaos.ParseSpec(spec); err == nil {
			t.Errorf("ParseSpec(%q) accepted invalid spec", spec)
		}
	}
}

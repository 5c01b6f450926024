package harness

import (
	"errors"
	"testing"
	"time"

	"github.com/linebacker-sim/linebacker/internal/config"
	"github.com/linebacker-sim/linebacker/internal/sim"
)

// TestWatchdogFiresOnWedgedRun pins the forward-progress watchdog on a
// wedged default-mode run: a chaos-stalled DRAM livelocks the machine, and
// the run keeps ticking (a fault injector disables parking) with a flat
// committed-instruction count. The rapidly advancing cycle count must not
// pass for liveness: the watchdog has to see the flat progress counter and
// abort the run. This is the -short suite's watchdog coverage;
// TestAcceptanceWatchdogLivelockSweep skips in -short.
func TestWatchdogFiresOnWedgedRun(t *testing.T) {
	cfg := BenchConfig()
	cfg.Strict = false
	cfg.Chaos = config.Chaos{Enabled: true, Seed: 1, StallDRAMCycle: 1000}

	r := NewRunner(cfg, 0) // Windows=0: run to completion, which never comes
	r.WatchdogTick = 25 * time.Millisecond
	r.Timeout = 30 * time.Second // backstop so a broken watchdog cannot hang the suite

	_, err := r.Run(t.Context(), "S2", sim.Baseline{})
	if err == nil {
		t.Fatal("livelocked run finished without error")
	}
	if !errors.Is(err, ErrWatchdog) {
		t.Fatalf("livelocked run aborted with %v, want ErrWatchdog", err)
	}
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("error %T does not chain a *RunError: %v", err, err)
	}
	if re.Cycle <= 1000 {
		t.Errorf("watchdog aborted at cycle %d; expected the run to have ticked past the stall point", re.Cycle)
	}
}

// TestMemoStrictAliasing proves the memo deliberately aliases the two run
// modes: results are bit-identical strict vs default (test-enforced), so
// a default run may satisfy a strict request from cache and vice versa —
// cfgFingerprint canonicalises Strict away.
func TestMemoStrictAliasing(t *testing.T) {
	def := BenchConfig()
	def.Strict = false
	strict := def
	strict.Strict = true

	r := NewRunner(def, 2)
	first := r.MustRunCfg(def, "", "S2", sim.Baseline{})
	if n := r.Executions(); n != 1 {
		t.Fatalf("first run executed %d simulations, want 1", n)
	}
	second := r.MustRunCfg(strict, "", "S2", sim.Baseline{})
	if n := r.Executions(); n != 1 {
		t.Fatalf("strict request after default run executed %d simulations, want 1 (memo aliased)", n)
	}
	if first != second {
		t.Fatal("strict request returned a different result pointer than the memoised default run")
	}
}

package harness

import (
	"errors"
	"testing"
	"time"

	"github.com/linebacker-sim/linebacker/internal/config"
	"github.com/linebacker-sim/linebacker/internal/sim"
)

// TestWatchdogFiresUnderSkipping pins the interaction between the
// forward-progress watchdog and the event-driven run loop: a chaos-stalled
// DRAM livelocks the machine into a wedge the skipping engine fast-forwards
// through checkpoint by checkpoint, and skipped spans publish no new
// progress (committed instructions cannot change across a skip, by the
// event contract). A naive implementation could have credited the rapidly
// advancing cycle count as liveness; the watchdog must still see a flat
// progress counter and abort the run.
func TestWatchdogFiresUnderSkipping(t *testing.T) {
	cfg := BenchConfig()
	cfg.Strict = false
	cfg.Chaos = config.Chaos{Enabled: true, Seed: 1, StallDRAMCycle: 1000}

	r := NewRunner(cfg, 0) // Windows=0: run to completion, which never comes
	r.WatchdogTick = 25 * time.Millisecond
	r.Timeout = 30 * time.Second // backstop so a broken watchdog cannot hang the suite

	_, err := r.Run(t.Context(), "S2", sim.Baseline{})
	if err == nil {
		t.Fatal("livelocked skipping run finished without error")
	}
	if !errors.Is(err, ErrWatchdog) {
		t.Fatalf("livelocked skipping run aborted with %v, want ErrWatchdog", err)
	}
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("error %T does not chain a *RunError: %v", err, err)
	}
	if re.Cycle <= 1000 {
		t.Errorf("watchdog aborted at cycle %d; expected the skipping loop to have advanced past the stall point", re.Cycle)
	}
}

// TestMemoStrictAliasing proves the memo deliberately aliases the two run
// modes: results are bit-identical strict vs skipping (test-enforced), so
// a skipping run may satisfy a strict request from cache and vice versa —
// cfgFingerprint canonicalises Strict away.
func TestMemoStrictAliasing(t *testing.T) {
	skip := BenchConfig()
	skip.Strict = false
	strict := skip
	strict.Strict = true

	r := NewRunner(skip, 2)
	first := r.MustRunCfg(skip, "", "S2", sim.Baseline{})
	if n := r.Executions(); n != 1 {
		t.Fatalf("first run executed %d simulations, want 1", n)
	}
	second := r.MustRunCfg(strict, "", "S2", sim.Baseline{})
	if n := r.Executions(); n != 1 {
		t.Fatalf("strict request after skipping run executed %d simulations, want 1 (memo aliased)", n)
	}
	if first != second {
		t.Fatal("strict request returned a different result pointer than the memoised skipping run")
	}
}

package harness

import (
	"testing"

	"github.com/linebacker-sim/linebacker/internal/sim"
)

// TestRunCfgNoConfigAliasing is the regression test for the memo-key bug
// where RunCfg keyed runs by (cfgKey, bench, policy-name) only: two
// different configurations sharing a cfgKey silently returned the first
// run's result. The key now embeds a full config fingerprint.
func TestRunCfgNoConfigAliasing(t *testing.T) {
	r := NewRunner(BenchConfig(), 2)

	small := r.Cfg
	small.GPU.L1Bytes = 16 * 1024
	large := r.Cfg
	large.GPU.L1Bytes = 128 * 1024

	// Identical cfgKey ("") and (bench, policy) on purpose.
	resSmall := r.MustRunCfg(small, "", "S2", sim.Baseline{})
	resLarge := r.MustRunCfg(large, "", "S2", sim.Baseline{})

	if resSmall == resLarge {
		t.Fatal("different configs aliased to one memoised result")
	}
	if resSmall.L1.LoadHits == resLarge.L1.LoadHits && resSmall.Cycles == resLarge.Cycles {
		t.Fatal("8x L1 capacity changed nothing; runs likely aliased")
	}

	// Same config twice must still memoise (pointer-identical result).
	if again := r.MustRunCfg(small, "", "S2", sim.Baseline{}); again != resSmall {
		t.Fatal("identical config re-ran instead of hitting the memo")
	}
}

// TestRunCfgKeyIncludesPolicy guards the rest of the key.
func TestRunCfgKeyIncludesPolicy(t *testing.T) {
	r := NewRunner(BenchConfig(), 2)
	a := r.MustRun("S2", sim.Baseline{})
	b := r.MustRun("BI", sim.Baseline{})
	if a == b {
		t.Fatal("different benchmarks aliased")
	}
}

// TestRunProbeKeyIncludesConfigAndRunLength: a probe is keyed like every
// other point, so a runner whose Windows or Cfg changed probes afresh
// instead of returning a stale probe, and restoring both hits the memo.
func TestRunProbeKeyIncludesConfigAndRunLength(t *testing.T) {
	r := NewRunner(BenchConfig(), 1)
	one := r.MustRunProbe("S2")
	r.Windows = 2
	two := r.MustRunProbe("S2")
	if two == one {
		t.Fatal("a 2-window probe returned the memoised 1-window probe")
	}
	base := r.Cfg
	r.Cfg.GPU.L1Bytes = 16 * 1024
	if r.MustRunProbe("S2") == two {
		t.Fatal("a 16 KB-L1 probe returned the memoised probe of the base config")
	}
	if got := r.Executions(); got != 3 {
		t.Fatalf("three distinct probes ran %d simulation(s), want 3", got)
	}

	r.Cfg, r.Windows = base, 1
	if r.MustRunProbe("S2") != one {
		t.Fatal("restoring the config and run length did not return the memoised probe")
	}
	if got := r.Executions(); got != 3 {
		t.Fatalf("memo hit ran a simulation: %d execution(s), want 3", got)
	}
}

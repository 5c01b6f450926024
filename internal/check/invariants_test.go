package check

import (
	"testing"

	"github.com/linebacker-sim/linebacker/internal/config"
	"github.com/linebacker-sim/linebacker/internal/core"
	"github.com/linebacker-sim/linebacker/internal/schemes"
	"github.com/linebacker-sim/linebacker/internal/sim"
	"github.com/linebacker-sim/linebacker/internal/workload"
)

// testConfig is a small, fast configuration for verification runs.
func testConfig() config.Config {
	cfg := config.Default()
	cfg.GPU.NumSMs = 2
	cfg.LB.WindowCycles = 2000
	return cfg
}

// testPolicies enumerates fresh policy instances covering every behavioural
// family the engine hosts: plain baseline, CTA gating, cache bypassing,
// victim caching with and without selection/throttling, and L1 reshaping.
func testPolicies() map[string]func() sim.Policy {
	return map[string]func() sim.Policy{
		"baseline": func() sim.Policy { return sim.Baseline{} },
		"swl2":     func() sim.Policy { return schemes.SWL{Limit: 2} },
		"pcal":     func() sim.Policy { return schemes.PCAL{} },
		"cerf":     func() sim.Policy { return schemes.CERF{} },
		"cacheext": func() sim.Policy { return schemes.CacheExt{} },
		"ccws":     func() sim.Policy { return schemes.CCWS{} },
		"lb":       func() sim.Policy { return core.New() },
		"svc":      func() sim.Policy { return core.NewWith(core.Options{Selection: true}) },
		"vc":       func() sim.Policy { return core.NewWith(core.Options{Selection: false}) },
	}
}

// TestInvariantsHoldAcrossSchemes sweeps every conservation law every cycle
// for a sample of benchmarks under every policy family. Zero violations
// are tolerated.
func TestInvariantsHoldAcrossSchemes(t *testing.T) {
	benches := []string{"S2", "BI", "KM"}
	if testing.Short() {
		benches = benches[:1]
	}
	for _, bench := range benches {
		b, ok := workload.ByName(bench)
		if !ok {
			t.Fatalf("unknown benchmark %q", bench)
		}
		for name, mk := range testPolicies() {
			t.Run(bench+"/"+name, func(t *testing.T) {
				t.Parallel()
				cfg := testConfig()
				g, err := sim.New(cfg, b.Kernel, mk())
				if err != nil {
					t.Fatal(err)
				}
				c := Attach(g, Collect())
				g.Run(8 * int64(cfg.LB.WindowCycles))
				if c.Sweeps() == 0 {
					t.Fatal("checker never swept")
				}
				for _, v := range c.Violations() {
					t.Errorf("violation: %s", v)
				}
			})
		}
	}
}

// TestCheckerFailFastPanics verifies that fail-fast mode aborts the run
// through the engine's panic path when a rule reports a violation.
func TestCheckerFailFastPanics(t *testing.T) {
	b, _ := workload.ByName("S2")
	cfg := testConfig()
	g, err := sim.New(cfg, b.Kernel, sim.Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	Attach(g, WithRules([]Rule{{
		Name:  "always-fails",
		Check: func(*sim.GPU) error { return errTest },
	}}))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic from fail-fast checker")
		}
	}()
	g.Run(10)
}

// TestEveryInterval verifies sweep-interval honouring.
func TestEveryInterval(t *testing.T) {
	b, _ := workload.ByName("S2")
	g, err := sim.New(testConfig(), b.Kernel, sim.Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	c := Attach(g, Every(100), Collect())
	g.Run(1000)
	if got := c.Sweeps(); got != 10 {
		t.Fatalf("swept %d times over 1000 cycles at interval 100, want 10", got)
	}
}

var errTest = errInvariant("injected test failure")

type errInvariant string

func (e errInvariant) Error() string { return string(e) }

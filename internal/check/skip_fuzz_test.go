package check_test

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"github.com/linebacker-sim/linebacker/internal/config"
	"github.com/linebacker-sim/linebacker/internal/core"
	"github.com/linebacker-sim/linebacker/internal/harness"
	"github.com/linebacker-sim/linebacker/internal/schemes"
	"github.com/linebacker-sim/linebacker/internal/sim"
	"github.com/linebacker-sim/linebacker/internal/workload"
)

// TestSkipFuzzStrictEquivalence is the randomized arm of the cycle-skipping
// invisibility proof: the golden matrix pins two configurations forever,
// this test draws fresh ones every run. Each trial perturbs the machine
// along the axes the event protocol actually reasons about — cache
// geometry (MSHR stall spans), DRAM timing (bank wake cycles), scheduler
// gating (SWL limits), policy — then runs the same (bench, config) strict
// and skipping and demands the full Result (including Extra) and the final
// StateDump match exactly. Seeds are fixed per trial index so any failure
// reproduces deterministically.
//
// The trialNN runs draw baseline, SWL or Linebacker. The schemeNN runs
// cover the schemes whose policy events come from ranking and window
// boundaries: CCWS at its defaults, CCWS with a drawn score hit, decay and
// deschedule divisor (so rankings can re-admit warps after every score
// has decayed), and PCAL, in rotation.
func TestSkipFuzzStrictEquivalence(t *testing.T) {
	trials, schemeTrials := 12, 6
	if testing.Short() {
		trials, schemeTrials = 3, 3
	}
	for i := 0; i < trials; i++ {
		t.Run(fmt.Sprintf("trial%02d", i), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewPCG(0x11bebacce5, uint64(i)))
			skipFuzzTrial(t, rng, func(cfg *config.Config) func() sim.Policy {
				switch rng.IntN(3) {
				case 0:
					return func() sim.Policy { return sim.Baseline{} }
				case 1:
					limit := 1 + rng.IntN(cfg.GPU.MaxCTAsPerSM)
					return func() sim.Policy { return schemes.SWL{Limit: limit} }
				default:
					return func() sim.Policy { return core.New() }
				}
			})
		})
	}
	for i := 0; i < schemeTrials; i++ {
		t.Run(fmt.Sprintf("scheme%02d", i), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewPCG(0xcc75bca1, uint64(i)))
			skipFuzzTrial(t, rng, func(*config.Config) func() sim.Policy {
				switch i % 3 {
				case 0:
					return func() sim.Policy { return schemes.CCWS{} }
				case 1:
					c := schemes.CCWS{
						ScoreHit:                float64(int(1) << rng.IntN(7)), // 1..64
						DecayPerCycle:           float64(1+rng.IntN(10)) / 100,  // 0.01..0.10
						ScorePerDescheduledWarp: float64(int(1) << rng.IntN(9)), // 1..256
					}
					return func() sim.Policy { return c }
				default:
					return func() sim.Policy { return schemes.PCAL{} }
				}
			})
		})
	}
}

// skipFuzzTrial draws one machine from rng, then the policy (drawPolicy),
// the benchmark and the run length, and compares a strict and a skipping
// run of it.
func skipFuzzTrial(t *testing.T, rng *rand.Rand, drawPolicy func(*config.Config) func() sim.Policy) {
	cfg := harness.BenchConfig()
	line := config.LineSize
	cfg.GPU.L1Bytes = cfg.GPU.L1Ways * line * (8 << rng.IntN(4))  // 8..64 sets
	cfg.GPU.L2Bytes = cfg.GPU.L2Ways * line * (64 << rng.IntN(4)) // 64..512 sets
	cfg.GPU.L1MSHRs = 4 << rng.IntN(5)                            // 4..64
	cfg.GPU.DRAM.RCD = float64(6 + rng.IntN(13))
	cfg.GPU.DRAM.RP = float64(6 + rng.IntN(13))
	cfg.GPU.DRAM.CL = float64(6 + rng.IntN(13))
	cfg.GPU.MaxWarpMLP = 1 + rng.IntN(6)

	mk := drawPolicy(&cfg)
	benches := workload.Names()
	bench := benches[rng.IntN(len(benches))]
	windows := 2 + rng.IntN(2)
	cycles := int64(windows) * int64(cfg.LB.WindowCycles)

	b, ok := workload.ByName(bench)
	if !ok {
		t.Fatalf("workload %s not found", bench)
	}
	run := func(strict bool) (*sim.Result, string, int64) {
		c := cfg
		c.Strict = strict
		g, err := sim.New(c, b.Kernel, mk())
		if err != nil {
			t.Fatalf("strict=%v: %v", strict, err)
		}
		g.Run(cycles)
		return g.Collect(), g.StateDump(), g.SleptSMCycles()
	}
	rs, ds, _ := run(true)
	rk, dk, slept := run(false)
	if !reflect.DeepEqual(rs, rk) {
		t.Errorf("bench %s: Result diverged between strict and skipping:\nstrict:   %+v\nskipping: %+v",
			bench, rs, rk)
	}
	if ds != dk {
		t.Errorf("bench %s: StateDump diverged:\n--- strict ---\n%s\n--- skipping ---\n%s",
			bench, ds, dk)
	}
	t.Logf("bench=%s policy=%s slept=%d/%d SM-cycles", bench, mk().Name(), slept, cycles*int64(cfg.GPU.NumSMs))
}

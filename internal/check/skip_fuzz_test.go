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
// gating (SWL limits), policy (baseline / SWL / Linebacker) — then runs
// the same (bench, config) strict and skipping and demands the full Result
// (including Extra) and the final StateDump match exactly. Seeds are fixed
// per trial index so any failure reproduces deterministically.
func TestSkipFuzzStrictEquivalence(t *testing.T) {
	trials := 12
	if testing.Short() {
		trials = 3
	}
	benches := workload.Names()
	for i := 0; i < trials; i++ {
		i := i
		t.Run(fmt.Sprintf("trial%02d", i), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewPCG(0x11bebacce5, uint64(i)))

			cfg := harness.BenchConfig()
			line := config.LineSize
			cfg.GPU.L1Bytes = cfg.GPU.L1Ways * line * (8 << rng.IntN(4))  // 8..64 sets
			cfg.GPU.L2Bytes = cfg.GPU.L2Ways * line * (64 << rng.IntN(4)) // 64..512 sets
			cfg.GPU.L1MSHRs = 4 << rng.IntN(5)                            // 4..64
			cfg.GPU.DRAM.RCD = float64(6 + rng.IntN(13))
			cfg.GPU.DRAM.RP = float64(6 + rng.IntN(13))
			cfg.GPU.DRAM.CL = float64(6 + rng.IntN(13))
			cfg.GPU.MaxWarpMLP = 1 + rng.IntN(6)

			var mk func() sim.Policy
			switch rng.IntN(3) {
			case 0:
				mk = func() sim.Policy { return sim.Baseline{} }
			case 1:
				limit := 1 + rng.IntN(cfg.GPU.MaxCTAsPerSM)
				mk = func() sim.Policy { return schemes.SWL{Limit: limit} }
			default:
				mk = func() sim.Policy { return core.New() }
			}
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
		})
	}
}

package check

import (
	"testing"

	"github.com/linebacker-sim/linebacker/internal/sim"
	"github.com/linebacker-sim/linebacker/internal/workload"
)

// Run with -bench 'BenchmarkStep' to compare per-cycle cost with checking
// disabled (the default, which must stay within noise of the unhooked
// engine), enabled every cycle, and enabled at the sampling interval.
func benchmarkRun(b *testing.B, attach bool, every int64) {
	bench, _ := workload.ByName("S2")
	cfg := testConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, err := sim.New(cfg, bench.Kernel, sim.Baseline{})
		if err != nil {
			b.Fatal(err)
		}
		if attach {
			Attach(g, Every(every))
		}
		g.Run(4 * int64(cfg.LB.WindowCycles))
	}
}

func BenchmarkStepCheckerOff(b *testing.B)      { benchmarkRun(b, false, 0) }
func BenchmarkStepCheckerEvery1(b *testing.B)   { benchmarkRun(b, true, 1) }
func BenchmarkStepCheckerEvery100(b *testing.B) { benchmarkRun(b, true, 100) }

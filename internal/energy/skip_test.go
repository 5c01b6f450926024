package energy

import (
	"testing"

	"github.com/linebacker-sim/linebacker/internal/config"
	"github.com/linebacker-sim/linebacker/internal/sim"
	"github.com/linebacker-sim/linebacker/internal/workload"
)

// TestEnergySkipInvariance closes the reporting chain over the two run
// modes: the energy model consumes only Result counters, and those are
// bit-identical between strict and default runs, so every energy figure
// must be too — float-for-float, not approximately. A divergence here
// means a run-mode cache leaked into a counter the model reads (e.g. a
// parked LSU that missed a fill, shifting every later L1 and DRAM count).
func TestEnergySkipInvariance(t *testing.T) {
	cfg := config.Default()
	cfg.GPU.NumSMs = 4
	cfg.GPU.DRAMBandwidthGBs = 176.25
	cfg.GPU.DRAMChannels = 4
	cfg.GPU.L2Bytes = 512 * 1024
	cfg.LB.WindowCycles = 12500

	b, ok := workload.ByName("S2")
	if !ok {
		t.Fatal("workload S2 not found")
	}
	run := func(strict bool) Breakdown {
		c := cfg
		c.Strict = strict
		g, err := sim.New(c, b.Kernel, sim.Baseline{})
		if err != nil {
			t.Fatal(err)
		}
		g.Run(50_000)
		return Compute(&c, g.Collect())
	}
	es, ek := run(true), run(false)
	if es != ek {
		t.Fatalf("energy breakdown diverged between run modes:\nstrict:  %+v\ndefault: %+v", es, ek)
	}
	if es.Total() == 0 {
		t.Fatal("energy model returned zero total; the comparison is vacuous")
	}
}

package harness

import (
	"testing"

	"github.com/linebacker-sim/linebacker/internal/core"
	"github.com/linebacker-sim/linebacker/internal/sim"
	"github.com/linebacker-sim/linebacker/internal/workload"
)

// TestStepAllocCeilingRealKernels pins the steady-state allocation cost of
// GPU.Step on a Table 2 kernel, where the sim package's ceiling test uses a
// toy one: S2 on the benchmark machine, under the baseline and under
// Linebacker, whose register backups and restores add their own requests.
// After a warm-up that reaches the pools' high-water marks and the
// controller's first throttling decisions, neither the miss path nor the
// register traffic may allocate per access.
func TestStepAllocCeilingRealKernels(t *testing.T) {
	b, ok := workload.ByName("S2")
	if !ok {
		t.Fatal("S2 missing from Table 2")
	}
	for _, tc := range []struct {
		name string
		pol  sim.Policy
	}{
		{"baseline", sim.Baseline{}},
		{"linebacker", core.New()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, err := sim.New(BenchConfig(), b.Kernel, tc.pol)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 30_000; i++ {
				g.Step()
			}
			const steps = 20_000
			perStep := testing.AllocsPerRun(1, func() {
				for i := 0; i < steps; i++ {
					g.Step()
				}
			}) / steps
			const ceiling = 0.1
			if perStep > ceiling {
				t.Errorf("GPU.Step allocates %.3f objects/step steady-state, ceiling %v", perStep, ceiling)
			}
			t.Logf("GPU.Step: %.4f allocations/step", perStep)
		})
	}
}

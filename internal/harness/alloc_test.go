package harness

import (
	"testing"

	"github.com/linebacker-sim/linebacker/internal/config"
	"github.com/linebacker-sim/linebacker/internal/core"
	"github.com/linebacker-sim/linebacker/internal/sim"
	"github.com/linebacker-sim/linebacker/internal/workload"
)

// TestStepAllocCeilingRealKernels pins the steady-state allocation cost of
// GPU.Step on Table 2 kernels, where the sim package's ceiling test uses a
// toy one: S2 on the benchmark machine, under the baseline and under
// Linebacker, whose register backups and restores add their own requests;
// and FD on the Table 1 machine, which stores faster than the DRAM drains,
// so its queue of dirty L2 writebacks grows for the whole run. After a
// warm-up that reaches the pools' high-water marks, the controller's first
// throttling decisions and the onset of FD's backlog (near cycle 80 000),
// neither the miss path, nor the register traffic, nor a growing backlog
// may allocate per access.
func TestStepAllocCeilingRealKernels(t *testing.T) {
	for _, tc := range []struct {
		name        string
		bench       string
		cfg         config.Config
		pol         sim.Policy
		warm, steps int
	}{
		{"baseline", "S2", BenchConfig(), sim.Baseline{}, 30_000, 20_000},
		{"linebacker", "S2", BenchConfig(), core.New(), 30_000, 20_000},
		{"FD-paper-baseline", "FD", PaperConfig(), sim.Baseline{}, 100_000, 25_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, ok := workload.ByName(tc.bench)
			if !ok {
				t.Fatalf("%s missing from Table 2", tc.bench)
			}
			g, err := sim.New(tc.cfg, b.Kernel, tc.pol)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < tc.warm; i++ {
				g.Step()
			}
			perStep := testing.AllocsPerRun(1, func() {
				for i := 0; i < tc.steps; i++ {
					g.Step()
				}
			}) / float64(tc.steps)
			const ceiling = 0.1
			if perStep > ceiling {
				t.Errorf("GPU.Step allocates %.3f objects/step steady-state, ceiling %v", perStep, ceiling)
			}
			t.Logf("GPU.Step: %.4f allocations/step", perStep)
		})
	}
}

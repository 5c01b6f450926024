package workload_test

import (
	"context"
	"reflect"
	"testing"

	"github.com/linebacker-sim/linebacker/internal/core"
	"github.com/linebacker-sim/linebacker/internal/harness"
	"github.com/linebacker-sim/linebacker/internal/sim"
	"github.com/linebacker-sim/linebacker/internal/workload"
)

// TestSweepLeavesKernelsUntouched runs every Table 2 kernel through a short
// harness sweep, under the baseline and under Linebacker, with the sweep
// pool's runs sharing the table concurrently. Afterwards every shared
// kernel must still equal a freshly built one: no simulation may write to
// the kernels it reads.
func TestSweepLeavesKernelsUntouched(t *testing.T) {
	cfg := harness.BenchConfig()
	cfg.GPU.NumSMs = 1
	cfg.GPU.DRAMChannels = 2
	cfg.GPU.L2Bytes = 128 * 1024
	cfg.LB.WindowCycles = 2000
	r := harness.NewRunner(cfg, 3)
	s := r.ForEachBench(context.Background(), func(ctx context.Context, bench string) (float64, error) {
		for _, pol := range []sim.Policy{sim.Baseline{}, core.New()} {
			if _, err := r.Run(ctx, bench, pol); err != nil {
				return 0, err
			}
		}
		return 0, nil
	})
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if got, want := r.Executions(), int64(2*len(s.Benches)); got != want {
		t.Fatalf("sweep executed %d runs, want %d", got, want)
	}
	fresh := workload.BuildTable()
	all := workload.All()
	if len(all) != len(fresh) {
		t.Fatalf("table has %d kernels, fresh build %d", len(all), len(fresh))
	}
	for i, b := range all {
		if b.Kernel == fresh[i].Kernel {
			t.Fatalf("%s: the fresh build returned the shared kernel", b.Name)
		}
		if !reflect.DeepEqual(b, fresh[i]) {
			t.Errorf("%s: shared kernel differs from a fresh build after the sweep", b.Name)
		}
	}
}

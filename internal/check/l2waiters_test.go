package check_test

import (
	"testing"

	"github.com/linebacker-sim/linebacker/internal/check"
	"github.com/linebacker-sim/linebacker/internal/harness"
	"github.com/linebacker-sim/linebacker/internal/sim"
	"github.com/linebacker-sim/linebacker/internal/workload"
)

// TestL2WaiterListsAudited runs AT on the 4-SM benchmark machine with
// every engine rule checked each cycle. AT's SMs miss on lines whose L2
// fill is already in flight, so loads merge into L2 MSHR slots, and the
// l2-mshr rule holds each merged request to the live slot of its line: a
// freed slot that keeps its waiter list fails the run at the fill that
// freed it.
func TestL2WaiterListsAudited(t *testing.T) {
	b, ok := workload.ByName("AT")
	if !ok {
		t.Fatal("unknown benchmark AT")
	}
	cfg := harness.BenchConfig()
	g, err := sim.New(cfg, b.Kernel, sim.Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	c := check.Attach(g, check.Collect())
	g.Run(2 * int64(cfg.LB.WindowCycles))
	merged := g.L2().Stats.LoadPendingHits
	if merged == 0 {
		t.Fatal("vacuous: no load merged into an L2 fill in flight")
	}
	if vs := c.Violations(); len(vs) > 0 {
		t.Fatalf("%d violations; first: %s", len(vs), vs[0])
	}
	t.Logf("%d loads merged into L2 fills in flight over %d checked cycles", merged, c.Sweeps())
}

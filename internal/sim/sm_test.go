package sim

import (
	"fmt"
	"strings"
	"testing"

	"github.com/linebacker-sim/linebacker/internal/memtypes"
	"github.com/linebacker-sim/linebacker/internal/workload"
)

func computeKernel(latency int) *workload.Kernel {
	return workload.NewKernel("compute",
		nil,
		[]workload.LoadSpec{{Pattern: workload.Streaming, Scope: workload.PerWarp, Coalesced: 1, Every: 1 << 20}},
		4, latency, 500, 4, 16, 64)
}

func TestComputeThroughputBound(t *testing.T) {
	// A compute-only kernel with unit latency saturates the schedulers:
	// IPC per SM approaches NumSchedulers.
	cfg := testConfig()
	cfg.GPU.NumSMs = 1
	g, err := New(cfg, computeKernel(1), Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	g.Run(20_000)
	r := g.Collect()
	if ipc := r.IPC(); ipc < 3.2 || ipc > 4.01 {
		t.Fatalf("compute-only IPC = %.2f, want near 4 (schedulers)", ipc)
	}
}

func TestMLPLimitRespected(t *testing.T) {
	cfg := testConfig()
	cfg.GPU.NumSMs = 1
	cfg.GPU.MaxWarpMLP = 3
	k := workload.NewKernel("mlp",
		[]workload.LoadSpec{{Pattern: workload.Streaming, Scope: workload.PerWarp, Coalesced: 2}},
		nil, 1, 2, 2000, 4, 16, 8)
	g, err := New(cfg, k, Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	maxSeen := 0
	for i := 0; i < 30_000; i++ {
		g.Step()
		sm := g.SMs()[0]
		for j := range sm.warps {
			if p := sm.warps[j].memPending; p > maxSeen {
				maxSeen = p
			}
		}
	}
	// A single issue can add Coalesced requests at once, so the bound is
	// MLP-1 (ready check) + Coalesced.
	if maxSeen > cfg.GPU.MaxWarpMLP-1+2 {
		t.Fatalf("outstanding requests %d exceed MLP bound", maxSeen)
	}
	if maxSeen == 0 {
		t.Fatal("no memory parallelism observed")
	}
}

func TestStoresWriteThroughBelowL1(t *testing.T) {
	cfg := testConfig()
	k := workload.NewKernel("stores",
		nil,
		[]workload.LoadSpec{{Pattern: workload.Streaming, Scope: workload.PerWarp, Coalesced: 1}},
		1, 2, 200, 4, 16, 8)
	g, err := New(cfg, k, Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	g.Run(0)
	r := g.Collect()
	if r.Stores == 0 {
		t.Fatal("no stores executed")
	}
	// Every store is forwarded below the (write-evict) L1: the L2 sees all
	// of them, and dirty L2 evictions eventually reach DRAM.
	if got := r.L2.StoreHits + r.L2.StoreMisses; got != r.Stores {
		t.Fatalf("L2 saw %d stores, SMs issued %d", got, r.Stores)
	}
}

func TestGTOGreedyStickiness(t *testing.T) {
	// With long-latency compute, GTO should rotate across warps; with unit
	// latency it should stick to one warp per scheduler (greedy), giving
	// the same IPC but far fewer distinct issuing warps per window.
	cfg := testConfig()
	cfg.GPU.NumSMs = 1
	g, err := New(cfg, computeKernel(1), Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	sm := g.SMs()[0]
	for i := 0; i < 1000; i++ {
		g.Step()
	}
	// Greedy: the last-issued warp of each scheduler should be issuing
	// repeatedly; its iteration count must far exceed the average.
	maxIter, sumIter, alive := 0, 0, 0
	for i := range sm.warps {
		w := &sm.warps[i]
		if !w.Alive {
			continue
		}
		alive++
		sumIter += w.iter
		if w.iter > maxIter {
			maxIter = w.iter
		}
	}
	if alive == 0 {
		t.Fatal("no live warps")
	}
	avg := float64(sumIter) / float64(alive)
	if float64(maxIter) < 2*avg {
		t.Fatalf("greedy warp iter %d not ahead of average %.1f", maxIter, avg)
	}
}

func TestEveryFieldSkipsIterations(t *testing.T) {
	cfg := testConfig()
	cfg.GPU.NumSMs = 1
	k := workload.NewKernel("every",
		[]workload.LoadSpec{
			{Pattern: workload.Streaming, Scope: workload.PerWarp, Coalesced: 1, Every: 4},
		},
		nil, 1, 2, 400, 4, 16, 4)
	g, err := New(cfg, k, Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	g.Run(0)
	r := g.Collect()
	// 4 CTAs * 4 warps * 400 iters, load active every 4th iteration.
	want := int64(4 * 4 * 400 / 4)
	if got := r.TotalLoadReqs(); got != want {
		t.Fatalf("load requests = %d, want %d", got, want)
	}
}

// TestResidentCTAsCountsSlots checks ResidentCTAs, which reads the free-slot
// count that launchCTA and completeCTA keep, against a count of the
// resident slots after every cycle of a grid that launches CTAs into slots
// freed by completions until it drains.
func TestResidentCTAsCountsSlots(t *testing.T) {
	g, err := New(testConfig(), tinyKernel(20, 64), Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	slots, launches := 0, int64(0)
	for _, sm := range g.SMs() {
		slots += len(sm.ctas)
	}
	for !g.done() {
		if g.Cycle() > 1_000_000 {
			t.Fatal("grid did not drain")
		}
		g.Step()
		for _, sm := range g.SMs() {
			n := 0
			for i := range sm.ctas {
				if sm.ctas[i].Resident {
					n++
				}
			}
			if got := sm.ResidentCTAs(); got != n {
				t.Fatalf("cycle %d SM%d: ResidentCTAs = %d, %d slots resident", g.Cycle(), sm.ID(), got, n)
			}
		}
	}
	for _, sm := range g.SMs() {
		launches += sm.Stats.CTALaunches
	}
	if launches <= int64(slots) {
		t.Fatalf("vacuous: %d launches into %d slots reuse no slot", launches, slots)
	}
}

// l1WriterScheme's ExtraL1Latency writes the L1 between processOp's set
// walk and its access, which no policy hook may do.
type l1WriterScheme struct{}

func (l1WriterScheme) Name() string { return "l1-writer-test" }
func (l1WriterScheme) Attach(sm *SM) SMPolicy {
	return &l1WriterPolicy{sm: sm}
}

type l1WriterPolicy struct {
	BasePolicy
	sm *SM
}

func (p *l1WriterPolicy) ExtraL1Latency(line memtypes.LineAddr, _ int64) int {
	p.sm.L1().Store(line)
	return 0
}

// TestL1WriteBetweenWalkAndAccessPanics: processOp completes a load from
// the one set walk it took before calling the policy's ExtraL1Latency,
// ProbeVictim and AllocateL1, which is sound only while none of them
// writes the L1. A hook that does must stop the run, not let the access
// complete from a stale walk.
func TestL1WriteBetweenWalkAndAccessPanics(t *testing.T) {
	g, err := New(testConfig(), tinyKernel(20, 8), l1WriterScheme{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "stale lookup") {
			t.Fatalf("run with an L1-writing hook: recovered %v, want a stale-lookup panic", r)
		}
	}()
	g.Run(10_000)
}

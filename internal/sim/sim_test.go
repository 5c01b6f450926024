package sim

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/linebacker-sim/linebacker/internal/config"
	"github.com/linebacker-sim/linebacker/internal/memtypes"
	"github.com/linebacker-sim/linebacker/internal/workload"
)

// testConfig is a small, fast configuration.
func testConfig() config.Config {
	cfg := config.Default()
	cfg.GPU.NumSMs = 2
	cfg.LB.WindowCycles = 2000
	return cfg
}

// tinyKernel builds a small kernel that completes quickly.
func tinyKernel(iters, grid int) *workload.Kernel {
	return workload.NewKernel("tiny",
		[]workload.LoadSpec{
			{Pattern: workload.Tiled, Scope: workload.PerSM, WorkingSetBytes: 8 * 1024, Coalesced: 1, Phase: 1},
			{Pattern: workload.Streaming, Scope: workload.PerWarp, Coalesced: 1},
		},
		[]workload.LoadSpec{{Pattern: workload.Streaming, Scope: workload.PerWarp, Coalesced: 1}},
		2, 4, iters, 4, 16, grid)
}

// TestRunToCompletion drains small grids in both run modes. A drain is
// where the machine goes idle piece by piece, so besides the completion
// and instruction counts the strict and default runs must agree exactly,
// Result and StateDump. grid40 fills its MSHRs, so its default run must
// have parked an LSU (a parking run parks at its first MSHR stall); grid8
// never stalls.
func TestRunToCompletion(t *testing.T) {
	for _, grid := range []int{8, 40} {
		t.Run(fmt.Sprintf("grid%d", grid), func(t *testing.T) {
			k := tinyKernel(30, grid)
			run := func(strict bool) (*Result, string) {
				cfg := testConfig()
				cfg.Strict = strict
				g, err := New(cfg, k, Baseline{})
				if err != nil {
					t.Fatal(err)
				}
				cycles := g.Run(2_000_000)
				r := g.Collect()
				if r.CTACompleted != int64(grid) {
					t.Fatalf("strict=%v: completed %d/%d CTAs in %d cycles", strict, r.CTACompleted, grid, cycles)
				}
				// Every warp retires iters * body instructions.
				wantInstr := int64(grid) * 4 * 30 * int64(len(k.Body))
				if r.Instructions != wantInstr {
					t.Fatalf("strict=%v: instructions = %d, want %d", strict, r.Instructions, wantInstr)
				}
				if r.IPC() <= 0 {
					t.Fatal("IPC must be positive")
				}
				return r, g.StateDump()
			}
			rs, ds := run(true)
			rk, dk := run(false)
			if !reflect.DeepEqual(rs, rk) {
				t.Errorf("Result diverged between strict and default:\nstrict:  %+v\ndefault: %+v", rs, rk)
			}
			if ds != dk {
				t.Errorf("StateDump diverged:\n--- strict ---\n%s\n--- default ---\n%s", ds, dk)
			}
			if grid == 40 && rk.L1.MSHRStalls == 0 {
				t.Error("default run never stalled on a full MSHR, so it never parked; the comparison exercised nothing")
			}
			t.Logf("drained in %d cycles, %d MSHR stalls", rk.Cycles, rk.L1.MSHRStalls)
		})
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *Result {
		g, err := New(testConfig(), tinyKernel(50, 12), Baseline{})
		if err != nil {
			t.Fatal(err)
		}
		g.Run(0)
		return g.Collect()
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles || a.Instructions != b.Instructions ||
		a.L1 != b.L1 || a.Loads != b.Loads || a.DRAM != b.DRAM {
		t.Fatalf("non-deterministic runs:\n%+v\n%+v", a, b)
	}
}

func TestMaxCycleCap(t *testing.T) {
	g, err := New(testConfig(), tinyKernel(100000, 1000), Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	cycles := g.Run(5000)
	if cycles != 5000 {
		t.Fatalf("ran %d cycles, want cap 5000", cycles)
	}
	if g.Collect().Instructions == 0 {
		t.Fatal("no instructions retired under cap")
	}
}

func TestTiledLoadHitsInCache(t *testing.T) {
	// An 8 KB per-SM working set fits a 48 KB L1 with no competing
	// streaming traffic: after warmup the tiled load should mostly hit.
	k := workload.NewKernel("tiledonly",
		[]workload.LoadSpec{
			{Pattern: workload.Tiled, Scope: workload.PerSM, WorkingSetBytes: 8 * 1024, Coalesced: 1, Phase: 1},
		},
		nil, 2, 4, 600, 4, 16, 8)
	g, err := New(testConfig(), k, Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	g.Run(800_000)
	r := g.Collect()
	if r.CTACompleted == 0 {
		t.Fatal("nothing completed")
	}
	total := r.TotalLoadReqs()
	hitFrac := float64(r.Loads[OutHit]) / float64(total)
	if hitFrac < 0.8 {
		t.Fatalf("hit fraction %.2f too low; tiled reuse not captured", hitFrac)
	}
	if r.Loads[OutRegHit] != 0 || r.Loads[OutBypass] != 0 {
		t.Fatalf("baseline produced reg hits/bypasses: %+v", r.Loads)
	}
}

func TestStreamingEvictsReuseLines(t *testing.T) {
	// The paper's motivation (Section 2.3): adding a streaming load to a
	// cacheable working set destroys its hit ratio. This is the behaviour
	// Linebacker's selective victim caching exists to fix.
	g, err := New(testConfig(), tinyKernel(600, 8), Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	g.Run(800_000)
	r := g.Collect()
	hitFrac := float64(r.Loads[OutHit]) / float64(r.TotalLoadReqs())
	if hitFrac > 0.3 {
		t.Fatalf("hit fraction %.2f with streaming interference; expected thrashing", hitFrac)
	}
}

func TestStreamingMissesAndTraffic(t *testing.T) {
	k := workload.NewKernel("stream",
		[]workload.LoadSpec{{Pattern: workload.Streaming, Scope: workload.PerWarp, Coalesced: 1}},
		nil, 1, 4, 400, 4, 16, 8)
	g, err := New(testConfig(), k, Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	g.Run(1_500_000)
	r := g.Collect()
	if r.CTACompleted != 8 {
		t.Fatalf("completed %d/8", r.CTACompleted)
	}
	total := r.TotalLoadReqs()
	missFrac := float64(r.Loads[OutMiss]) / float64(total)
	if missFrac < 0.95 {
		t.Fatalf("streaming miss fraction %.2f, want ~1", missFrac)
	}
	if r.DRAM.BytesRead == 0 {
		t.Fatal("streaming load produced no DRAM traffic")
	}
	// Cold misses should dominate (2C ≈ 0 for pure streaming).
	if r.L1.CapConfMisses > r.L1.ColdMisses/10 {
		t.Fatalf("streaming produced capacity misses: %+v", r.L1)
	}
}

func TestMaxResidentCTAs(t *testing.T) {
	cfg := config.Default()
	k := tinyKernel(10, 10) // 4 warps * 16 regs = 64 regs/CTA
	// Warp limit: 64/4 = 16; thread limit 2048/128 = 16; reg limit
	// 2048/64 = 32; CTA cap 32 → 16.
	if got := MaxResidentCTAs(&cfg.GPU, k); got != 16 {
		t.Fatalf("MaxResidentCTAs = %d, want 16", got)
	}
	k.RegsPerThread = 64 // 256 regs/CTA → reg limit 8
	if got := MaxResidentCTAs(&cfg.GPU, k); got != 8 {
		t.Fatalf("reg-limited MaxResidentCTAs = %d, want 8", got)
	}
}

func TestProbeObservesLoads(t *testing.T) {
	g, err := New(testConfig(), tinyKernel(20, 4), Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	var probedLoads, probedStores int
	pcs := map[uint32]bool{}
	for _, sm := range g.SMs() {
		sm.Probe = func(warpSlot int, pc uint32, line memtypes.LineAddr, isStore bool, cycle int64) {
			if isStore {
				probedStores++
				return
			}
			probedLoads++
			pcs[pc] = true
		}
	}
	g.Run(0)
	r := g.Collect()
	if int64(probedLoads) != r.TotalLoadReqs() {
		t.Fatalf("probe saw %d loads, requests %d", probedLoads, r.TotalLoadReqs())
	}
	if int64(probedStores) != r.Stores {
		t.Fatalf("probe saw %d stores, issued %d", probedStores, r.Stores)
	}
	if len(pcs) != 2 {
		t.Fatalf("probe saw %d static loads, want 2", len(pcs))
	}
}

// throttlePolicy deactivates odd CTA slots — checks that throttled warps
// never issue.
type throttlePolicy struct{ BasePolicy }

func (throttlePolicy) CTAActive(slot int) bool { return slot%2 == 0 }

type throttleScheme struct{}

func (throttleScheme) Name() string        { return "throttle-test" }
func (throttleScheme) Attach(*SM) SMPolicy { return throttlePolicy{} }

func TestThrottledCTAsDoNotIssue(t *testing.T) {
	cfg := testConfig()
	k := tinyKernel(50, 64)
	g, err := New(cfg, k, throttleScheme{})
	if err != nil {
		t.Fatal(err)
	}
	g.Run(30_000)
	// Only even slots ever execute, so at most half the resident CTAs can
	// complete; with odd slots frozen forever the run cannot finish the
	// grid, but even ones complete and are replaced.
	r := g.Collect()
	if r.Instructions == 0 {
		t.Fatal("no progress with half the CTAs active")
	}
	for _, sm := range g.SMs() {
		for i := range sm.warps {
			w := &sm.warps[i]
			if w.CTASlot%2 == 1 && sm.ctas[w.CTASlot].Resident && w.iter > 0 {
				t.Fatalf("throttled warp (slot %d) made progress", w.CTASlot)
			}
		}
	}
}

func TestRegTrafficRoundTrip(t *testing.T) {
	cfg := testConfig()
	k := tinyKernel(10000, 64)
	done := map[int]bool{}
	pol := &regTrafficScheme{done: done}
	g, err := New(cfg, k, pol)
	if err != nil {
		t.Fatal(err)
	}
	g.Run(20_000)
	if len(done) != 2 || !done[600] || !done[601] {
		t.Fatalf("reg traffic completions = %v", done)
	}
	if g.DRAM().Stats.RegBackupBytes != 128 || g.DRAM().Stats.RegRestoreBytes != 128 {
		t.Fatalf("reg traffic bytes: %+v", g.DRAM().Stats)
	}
}

type regTrafficScheme struct {
	done map[int]bool
	sent bool
}

func (s *regTrafficScheme) Name() string { return "regtraffic-test" }
func (s *regTrafficScheme) Attach(sm *SM) SMPolicy {
	if sm.ID() == 0 {
		return &regTrafficPolicy{scheme: s, sm: sm}
	}
	return BasePolicy{}
}

type regTrafficPolicy struct {
	BasePolicy
	scheme *regTrafficScheme
	sm     *SM
}

func (p *regTrafficPolicy) OnCycle(cycle int64) {
	if !p.scheme.sent && cycle == 100 {
		p.scheme.sent = true
		p.sm.SendRegTraffic(memtypes.RegBackup, 600, cycle)
		p.sm.SendRegTraffic(memtypes.RegRestore, 601, cycle)
	}
}

func (p *regTrafficPolicy) OnRegResponse(req *memtypes.Request, cycle int64) {
	p.scheme.done[req.RN] = true
}

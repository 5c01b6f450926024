// Package benchkit holds the benchmark bodies of the simulator's
// performance trajectory. The same bodies back the root-level
// `go test -bench 'Micro|Macro'` wrappers and the machine-readable
// BENCH_PR4.json emitter (see benchjson_test.go at the repo root), so the
// numbers in the artifact are always produced by exactly the code a `-bench`
// run exercises.
//
// Two tiers:
//
//   - micro: the per-cycle hot paths — cache access (L1 geometry), one full
//     GPU.Step (which contains the SM tick), and the interconnect link.
//     These are the paths the pooling/ring-buffer work targets; ns/op and
//     allocs/op here are the regression currency.
//   - macro: one full Figure 12 bench run — a single cache-sensitive
//     benchmark (S2) through the figure's policy set (baseline, Best-SWL
//     sweep, PCAL, CERF, Linebacker) on a fresh runner, i.e. real end-to-end
//     experiment regeneration with no memo hits.
package benchkit

import (
	"context"
	"fmt"
	"testing"

	"github.com/linebacker-sim/linebacker/internal/cache"
	"github.com/linebacker-sim/linebacker/internal/config"
	"github.com/linebacker-sim/linebacker/internal/core"
	"github.com/linebacker-sim/linebacker/internal/harness"
	"github.com/linebacker-sim/linebacker/internal/icnt"
	"github.com/linebacker-sim/linebacker/internal/memtypes"
	"github.com/linebacker-sim/linebacker/internal/schemes"
	"github.com/linebacker-sim/linebacker/internal/sim"
	"github.com/linebacker-sim/linebacker/internal/twin"
	"github.com/linebacker-sim/linebacker/internal/workload"
)

// macroBench is the cache-sensitive benchmark the macro tier runs.
const macroBench = "S2"

// CacheLoad exercises the L1 access path on the Table 1 geometry with a
// deterministic mixed hit/miss stream: a resident working set re-touched
// between misses, outstanding fills drained so the MSHRs never saturate.
func CacheLoad(b *testing.B) {
	c := cache.New(48*1024, 8, 64, false)
	const resident = 128 // lines re-touched between misses (always hitting)
	for i := 0; i < resident; i++ {
		l := memtypes.LineAddr(i * memtypes.LineSize)
		c.Load(l, uint32(i), true)
		c.Fill(l)
	}
	b.ReportAllocs()
	b.ResetTimer()
	next := uint64(resident)
	for i := 0; i < b.N; i++ {
		if i%4 == 3 {
			// Cold miss: allocate, then complete the fill immediately.
			l := memtypes.LineAddr(next * memtypes.LineSize)
			next++
			c.Load(l, uint32(i), true)
			c.Fill(l)
		} else {
			l := memtypes.LineAddr(uint64(i%resident) * memtypes.LineSize)
			c.Load(l, uint32(i), true)
		}
	}
}

// CacheStore exercises the store path (write-evict L1 policy) against a
// stream of store hits and misses.
func CacheStore(b *testing.B) {
	c := cache.New(48*1024, 8, 64, false)
	const resident = 128
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := memtypes.LineAddr(uint64(i%resident) * memtypes.LineSize)
		if i%2 == 0 {
			c.Load(l, uint32(i), true)
			c.Fill(l)
		} else {
			c.Store(l)
		}
	}
}

// GPUStep measures one whole-machine cycle (dispatch, every SM tick, icnt,
// L2, DRAM) in steady state on the fast 4-SM configuration running the
// macro benchmark under the baseline policy. One op == one simulated cycle,
// so sim-cycles/sec = 1e9 / ns_per_op.
func GPUStep(b *testing.B) {
	bench, ok := workload.ByName(macroBench)
	if !ok {
		b.Fatalf("unknown benchmark %q", macroBench)
	}
	cfg := harness.BenchConfig()
	build := func() *sim.GPU {
		g, err := sim.New(cfg, bench.Kernel, sim.Baseline{})
		if err != nil {
			b.Fatal(err)
		}
		// Warm the machine past the launch transient so the measured cycles
		// carry live memory traffic.
		g.Run(2000)
		return g
	}
	g := build()
	const rebuildEvery = 200_000 // stay well inside the grid's runtime
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%rebuildEvery == 0 {
			b.StopTimer()
			g = build()
			b.StartTimer()
		}
		g.Step()
	}
}

// IcntLink measures the SM↔L2 link: four sends and one delivery sweep per
// op, with the drain offset by the link latency so the queue stays in steady
// state — the engine-facing traffic pattern of one busy cycle.
func IcntLink(b *testing.B) {
	const latency = 12
	l := icnt.New(latency, 8)
	reqs := make([]*memtypes.Request, 64)
	for i := range reqs {
		reqs[i] = &memtypes.Request{Line: memtypes.LineAddr(i * memtypes.LineSize), Kind: memtypes.Load}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cyc := int64(i)
		for k := 0; k < 4; k++ {
			l.Send(reqs[(i*4+k)%len(reqs)], cyc)
		}
		deliverAll(l, cyc)
	}
	// Drain so Pending-based leak checks in callers stay clean.
	deliverAll(l, int64(b.N)+latency)
}

// deliverAll drains every request ready at the cycle.
func deliverAll(l *icnt.Link, cyc int64) {
	for len(l.Deliver(cyc)) > 0 {
	}
}

// MacroFig12Bench regenerates one Figure 12 column set end to end: the
// macro benchmark under baseline, the full Best-SWL limit sweep, PCAL, CERF
// and Linebacker, on a fresh runner (16 windows, 4-SM fast config) so
// nothing is memoised. This is the macro-tier trajectory number: wall-clock
// per full experiment regeneration.
func MacroFig12Bench(b *testing.B) {
	macroFig12(b, harness.BenchConfig())
}

// MacroFig12BenchStrict is the fig12 macro with cycle skipping disabled:
// the strict per-cycle engine on the 4-SM fast config. Paired with
// MacroFig12Bench (which runs the default skipping mode) it is the
// run-mode arm of the trajectory artifact. Note the 4-SM fast config is
// nearly issue-saturated, so the strict/skip gap here is small by
// construction; the paper-config pair below carries the headline ratio.
func MacroFig12BenchStrict(b *testing.B) {
	cfg := harness.BenchConfig()
	cfg.Strict = true
	macroFig12(b, cfg)
}

// MacroFig12PaperBench returns the fig12 macro body on the full Table 1
// machine (16 SMs, paper DRAM bandwidth) in the given run mode. This is
// the machine Figure 12 actually describes, and it is memory-starved
// enough that most SM-cycles are provably idle — the configuration where
// event-driven skipping pays (DESIGN.md §10).
func MacroFig12PaperBench(strict bool) func(*testing.B) {
	return func(b *testing.B) {
		cfg := harness.PaperConfig()
		cfg.Strict = strict
		macroFig12(b, cfg)
	}
}

// SkipRatio runs one benchmark under one policy in skipping mode and
// returns the fraction of SM-cycles the engine serviced through per-SM
// sleeping instead of a full tick (sim.SleptSMCycles) — the per-bench skip
// ratio reported in the trajectory artifact. The ratio is diagnostic only:
// results are bit-identical to strict mode regardless of its value.
func SkipRatio(cfg config.Config, bench string, pol sim.Policy, windows int) (float64, error) {
	bm, ok := workload.ByName(bench)
	if !ok {
		return 0, fmt.Errorf("benchkit: unknown benchmark %q", bench)
	}
	cfg.Strict = false
	g, err := sim.New(cfg, bm.Kernel, pol)
	if err != nil {
		return 0, err
	}
	cycles := int64(windows) * int64(cfg.LB.WindowCycles)
	end, err := g.RunCtx(context.Background(), cycles)
	if err != nil {
		return 0, err
	}
	if end == 0 {
		return 0, nil
	}
	return float64(g.SleptSMCycles()) / float64(end*int64(cfg.GPU.NumSMs)), nil
}

// twinWindows is the run length of the twin tier's calibration and of the
// cycle-level run it is compared against — the serve default, so the
// recorded speedup is the one /v1/estimate users actually see.
const twinWindows = 3

// TwinQuery measures one in-envelope analytical estimate against a
// pre-calibrated model — the interactive-query latency the twin tier
// exists for. Calibration happens once, outside the timer: its cost is
// the amortised price of every subsequent microsecond answer. Paired with
// TwinPointSim below, the trajectory artifact records the twin-vs-sim
// latency ratio.
func TwinQuery(b *testing.B) {
	r := harness.NewRunner(harness.BenchConfig(), twinWindows)
	m, err := twin.Calibrate(context.Background(), r, macroBench, twin.Options{})
	if err != nil {
		b.Fatal(err)
	}
	q := twin.Query{L1Bytes: 64 * 1024, LB: true}
	if est := m.Estimate(q); !est.InEnvelope {
		b.Fatalf("benchmark query out of envelope: %s", est.Reason)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if est := m.Estimate(q); !est.InEnvelope {
			b.Fatal("query left the envelope mid-benchmark")
		}
	}
}

// TwinPointSim measures the cycle-level answer to the same question
// TwinQuery asks: one full Linebacker run of the macro benchmark at 64 KB
// L1 on a fresh machine — no memo, no store, exactly what an estimate
// fallback pays.
func TwinPointSim(b *testing.B) {
	bench, ok := workload.ByName(macroBench)
	if !ok {
		b.Fatalf("unknown benchmark %q", macroBench)
	}
	cfg := harness.BenchConfig()
	cfg.GPU.L1Bytes = 64 * 1024
	cycles := int64(twinWindows) * int64(cfg.LB.WindowCycles)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, err := sim.New(cfg, bench.Kernel, core.New())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := g.RunCtx(context.Background(), cycles); err != nil {
			b.Fatal(err)
		}
	}
}

func macroFig12(b *testing.B, cfg config.Config) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := harness.NewRunner(cfg, 16)
		ctx := context.Background()
		if _, err := r.Run(ctx, macroBench, sim.Baseline{}); err != nil {
			b.Fatal(err)
		}
		if _, _, err := r.BestSWL(ctx, macroBench); err != nil {
			b.Fatal(err)
		}
		if _, err := r.Run(ctx, macroBench, schemes.PCAL{}); err != nil {
			b.Fatal(err)
		}
		if _, err := r.Run(ctx, macroBench, schemes.CERF{}); err != nil {
			b.Fatal(err)
		}
		if _, err := r.Run(ctx, macroBench, core.New()); err != nil {
			b.Fatal(err)
		}
	}
}

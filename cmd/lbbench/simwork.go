package main

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"time"

	"github.com/linebacker-sim/linebacker/internal/check"
	"github.com/linebacker-sim/linebacker/internal/config"
	"github.com/linebacker-sim/linebacker/internal/core"
	"github.com/linebacker-sim/linebacker/internal/harness"
	"github.com/linebacker-sim/linebacker/internal/schemes"
	"github.com/linebacker-sim/linebacker/internal/sim"
	"github.com/linebacker-sim/linebacker/internal/stats"
	"github.com/linebacker-sim/linebacker/internal/workload"
)

// point is one simulation a pass asks the harness for.
type point struct {
	bench  string
	policy func() sim.Policy
}

func (p point) String() string { return p.bench + "|" + p.policy().Name() }

func baselinePoint(bench string) point {
	return point{bench, func() sim.Policy { return sim.Baseline{} }}
}

func lbPoint(bench string) point {
	return point{bench, func() sim.Policy { return core.New() }}
}

// plan mirrors how a pass schedules its points, so a replay can schedule
// them the same way: groups run one after another; within a group the
// harness runs up to SweepWorkers tasks at once; a task runs its points
// back to back.
type plan [][][]point

func (pl plan) points() []point {
	var out []point
	for _, g := range pl {
		for _, task := range g {
			out = append(out, task...)
		}
	}
	return out
}

// simSpec defines one simulated workload.
type simSpec struct {
	base    func() config.Config
	windows int
	plan    func(cfg *config.Config) plan
	// pass runs one pass of the plan through the harness API on a fresh
	// runner.
	pass func(ctx context.Context, r *harness.Runner, pl plan) error
	// golden says the configuration and run length are the ones
	// internal/check/testdata/golden.json was captured at.
	golden bool
	// gain is lb_gain_gm: the geomean of Linebacker IPC over the
	// reference IPC, from one pass's results in plan order.
	gain func(pts []point, res []*sim.Result) float64
}

// fig12Bench is the cache-sensitive benchmark of the Fig 12 macro, the
// same one the BENCH_PR*.json macro tier ran.
const fig12Bench = "S2"

// paperBenches span the paper machine's behaviour: FD compute- and
// allocation-heavy, S2 in between, BI and BG mostly asleep on memory.
var paperBenches = []string{"S2", "BI", "FD", "BG"}

var simSpecs = map[string]simSpec{
	wFig12: {
		base:    harness.BenchConfig,
		windows: 16,
		plan: func(cfg *config.Config) plan {
			k := mustKernel(fig12Bench)
			single := func(p point) [][]point { return [][]point{{p}} }
			var swl [][]point
			for _, lim := range swlLimits(sim.MaxResidentCTAs(&cfg.GPU, k)) {
				swl = append(swl, []point{{fig12Bench, func() sim.Policy { return schemes.SWL{Limit: lim} }}})
			}
			return plan{
				single(baselinePoint(fig12Bench)),
				swl,
				single(point{fig12Bench, func() sim.Policy { return schemes.PCAL{} }}),
				single(point{fig12Bench, func() sim.Policy { return schemes.CERF{} }}),
				single(lbPoint(fig12Bench)),
			}
		},
		pass: func(ctx context.Context, r *harness.Runner, _ plan) error {
			if _, err := r.Run(ctx, fig12Bench, sim.Baseline{}); err != nil {
				return err
			}
			if _, _, err := r.BestSWL(ctx, fig12Bench); err != nil {
				return err
			}
			for _, pol := range []sim.Policy{schemes.PCAL{}, schemes.CERF{}, core.New()} {
				if _, err := r.Run(ctx, fig12Bench, pol); err != nil {
					return err
				}
			}
			return nil
		},
		// Fig 12 normalises to Best-SWL, the best static CTA limit.
		gain: func(pts []point, res []*sim.Result) float64 {
			var best, lb float64
			for i, p := range pts {
				switch p.policy().(type) {
				case schemes.SWL:
					best = max(best, res[i].IPC())
				case *core.Policy:
					lb = res[i].IPC()
				}
			}
			return lb / best
		},
	},
	wPaper: {
		base:    harness.PaperConfig,
		windows: 4,
		plan:    func(*config.Config) plan { return pointPlan(paperBenches) },
		pass:    poolPass,
		gain:    pairGain,
	},
	wSweep: {
		base:    harness.BenchConfig,
		windows: 3,
		plan:    func(*config.Config) plan { return pairPlan(workload.Names()) },
		pass:    pairPass,
		golden:  true,
		gain:    pairGain,
	},
}

// swlLimits lists the CTA limits the harness's Best-SWL sweep tries for a
// residency bound.
func swlLimits(maxResident int) []int {
	var out []int
	for _, c := range []int{1, 2, 3, 4, 6, 8, 12, 16, 24, 32} {
		if c < maxResident {
			out = append(out, c)
		}
	}
	return append(out, maxResident)
}

// pairPlan is a Runner.ForEachBench sweep over benches in Table 2 order:
// one task per bench, baseline then Linebacker.
func pairPlan(benches []string) plan {
	var g [][]point
	for _, b := range workload.Names() {
		if contains(benches, b) {
			g = append(g, []point{baselinePoint(b), lbPoint(b)})
		}
	}
	return plan{g}
}

// pointPlan runs every (bench, baseline|Linebacker) point as a task of
// its own, so the sweep pool can balance a few long points across workers.
func pointPlan(benches []string) plan {
	var g [][]point
	for _, task := range pairPlan(benches)[0] {
		for _, p := range task {
			g = append(g, []point{p})
		}
	}
	return plan{g}
}

// poolPass runs a plan's points through Runner.Run on the runner's
// SweepWorkers, claiming them in plan order.
func poolPass(ctx context.Context, r *harness.Runner, pl plan) error {
	var mu sync.Mutex
	var errs []error
	forPlan(pl, r.SweepWorkers, func(_ int, p point) {
		if _, err := r.Run(ctx, p.bench, p.policy()); err != nil {
			mu.Lock()
			errs = append(errs, err)
			mu.Unlock()
		}
	})
	return errors.Join(errs...)
}

// pairPass runs a pairPlan through Runner.ForEachBench: each bench's
// closure runs its tasks' points back to back.
func pairPass(ctx context.Context, r *harness.Runner, pl plan) error {
	tasks := map[string][]point{}
	for _, task := range pl[0] {
		tasks[task[0].bench] = task
	}
	s := r.ForEachBench(ctx, func(ctx context.Context, bench string) (float64, error) {
		for _, p := range tasks[bench] {
			if _, err := r.Run(ctx, bench, p.policy()); err != nil {
				return 0, err
			}
		}
		return 0, nil
	})
	return s.Err()
}

// pairGain is the geomean over benches of Linebacker IPC over baseline IPC
// (pairs are adjacent in pairPlan order).
func pairGain(_ []point, res []*sim.Result) float64 {
	var ratios []float64
	for i := 0; i+1 < len(res); i += 2 {
		ratios = append(ratios, res[i+1].IPC()/res[i].IPC())
	}
	return stats.GeoMean(ratios)
}

// passResult is one pass: its wall time, the bytes it allocated and every
// point's result in plan order.
type passResult struct {
	wall    time.Duration
	alloc   uint64
	results []*sim.Result
}

// execPass runs one pass on a fresh runner and fetches every plan point's
// result back from the runner's memo. The pass must have executed exactly
// the plan's points: a count mismatch, or a plan point the fetch has to
// simulate anew, fails the pass.
func execPass(ctx context.Context, spec simSpec, cfg config.Config, pl plan) (passResult, error) {
	pts := pl.points()
	r := harness.NewRunner(cfg, spec.windows)
	var out passResult
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	err := spec.pass(ctx, r, pl)
	out.wall = time.Since(start)
	runtime.ReadMemStats(&after)
	out.alloc = after.TotalAlloc - before.TotalAlloc
	if err != nil {
		return out, err
	}
	if n := r.Executions(); n != int64(len(pts)) {
		return out, fmt.Errorf("pass executed %d points, the plan has %d", n, len(pts))
	}
	for _, p := range pts {
		res, err := r.Run(ctx, p.bench, p.policy())
		if err != nil {
			return out, err
		}
		out.results = append(out.results, res)
	}
	if n := r.Executions(); n != int64(len(pts)) {
		return out, fmt.Errorf("the plan names %d point(s) the pass did not execute", n-int64(len(pts)))
	}
	return out, nil
}

// sameResult reports whether two runs produced identical results, field
// for field (headline metrics, every component counter and Extra).
func sameResult(a, b *sim.Result) bool { return reflect.DeepEqual(a, b) }

// goldenKey names a point's entry in the golden snapshot, if it has one.
func goldenKey(p point) (string, bool) {
	switch p.policy().(type) {
	case sim.Baseline:
		return p.bench + "|baseline", true
	case *core.Policy:
		return p.bench + "|lb", true
	}
	return "", false
}

// checkGolden compares every golden-covered point against the snapshot.
func checkGolden(pts []point, results []*sim.Result, golden *check.Snapshot, windows int, o *outcome) {
	if golden.Windows != windows {
		o.fail("golden snapshot is at %d windows, the workload runs %d", golden.Windows, windows)
		return
	}
	for i, p := range pts {
		key, ok := goldenKey(p)
		want, inGolden := golden.Entries[key]
		if ok && (!inGolden || check.MetricsOf(results[i]) != want) {
			o.fail("%s: differs from golden snapshot entry %q", p, key)
		}
	}
}

// checkSame compares a pass's results with the reference results.
func checkSame(what string, pts []point, got, want []*sim.Result, o *outcome) {
	for i := range pts {
		if !sameResult(got[i], want[i]) {
			o.fail("%s: %s differs from the strict-engine result", what, pts[i])
		}
	}
}

// runSim measures one simulated workload. A strict-engine pass runs first:
// it warms the process and is the reference every skipping pass must
// reproduce bit for bit, at any seed. At seed 1 a golden-covered workload
// is also checked against the committed snapshot. Set-up time runs from
// the start to the first measured pass, so it includes the process's
// first use of the engine.
func runSim(ctx context.Context, name string, spec simSpec, e *env) *outcome {
	o := newOutcome(name)
	setupStart := time.Now()
	cfg := spec.base()
	cfg.Seed = e.seed
	pl := spec.plan(&cfg)
	pts := pl.points()

	strict := cfg
	strict.Strict = true
	ref, err := execPass(ctx, spec, strict, pl)
	o.attempted += len(pts)
	if err != nil {
		o.fail("strict reference pass: %v", err)
		return o
	}
	if spec.golden && e.seed == 1 {
		checkGolden(pts, ref.results, e.golden, spec.windows, o)
	}
	o.e2e["setup_s"] = []float64{time.Since(setupStart).Seconds()}

	var last passResult
	measureStart := time.Now()
	for o.passes < e.minSimPasses || time.Since(measureStart) < e.seconds {
		pr, err := execPass(ctx, spec, cfg, pl)
		o.attempted += len(pts)
		if err != nil {
			o.fail("pass %d: %v", o.passes+1, err)
			return o
		}
		o.passes++
		checkSame(fmt.Sprintf("pass %d", o.passes), pts, pr.results, ref.results, o)
		var instr int64
		for _, res := range pr.results {
			instr += res.Instructions
		}
		o.e2e["wall_s"] = append(o.e2e["wall_s"], pr.wall.Seconds())
		o.e2e["sim_kips"] = append(o.e2e["sim_kips"], float64(instr)/pr.wall.Seconds()/1e3)
		o.e2e["alloc_mb"] = append(o.e2e["alloc_mb"], float64(pr.alloc)/1e6)
		last = pr
	}

	if e.traced {
		o.layer = traceSim(ctx, spec, cfg, pl, last.results, median(o.e2e["wall_s"]), e, o)
		for k, v := range modelMetrics(last.results, spec.gain(pts, last.results)) {
			o.layer[k] = v
		}
	}
	return o
}

// modelMetrics sums the modelled components' exact counters over a set of
// results. They move only when the model changes.
func modelMetrics(results []*sim.Result, gain float64) map[string]float64 {
	var l1, l1Miss, l2, dramBytes, vr, vw, bc, regHits, loads int64
	for _, r := range results {
		l1 += r.L1.TotalLoadAccesses()
		l1Miss += r.L1.LoadMisses
		l2 += r.L2.TotalLoadAccesses() + r.L2.StoreHits + r.L2.StoreMisses
		dramBytes += r.DRAM.TotalBytes()
		vr += r.RF.VictimReads
		vw += r.RF.VictimWrites
		bc += r.RF.BankConflicts
		regHits += r.Loads[sim.OutRegHit]
		loads += r.TotalLoadReqs()
	}
	return map[string]float64{
		"cache.l1_load_accesses": float64(l1),
		"cache.l1_miss_ratio":    ratio(l1Miss, l1),
		"cache.l2_accesses":      float64(l2),
		"dram.bytes":             float64(dramBytes),
		"regfile.victim_reads":   float64(vr),
		"regfile.victim_writes":  float64(vw),
		"regfile.bank_conflicts": float64(bc),
		"core.reg_hit_ratio":     ratio(regHits, loads),
		"core.lb_gain_gm":        gain,
	}
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func mustKernel(bench string) *workload.Kernel {
	b, ok := workload.ByName(bench)
	if !ok {
		panic("lbbench: unknown benchmark " + bench)
	}
	return b.Kernel
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

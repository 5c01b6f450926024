package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"github.com/linebacker-sim/linebacker/internal/cache"
	"github.com/linebacker-sim/linebacker/internal/config"
	"github.com/linebacker-sim/linebacker/internal/memtypes"
	"github.com/linebacker-sim/linebacker/internal/sim"
)

// The traced pass times calls into each layer from outside the program:
// a transparent policy decorator counts (and samples the time of) every
// SMPolicy hook, a CycleChecker counts ticked cycles, spans bracket
// sim.New, RunCtx and Collect, and a strict replay under a FaultInjector
// stage observer splits engine time by Step stage.

// hookGroup classifies SMPolicy hooks by the work they stand for.
type hookGroup int

const (
	// gateHooks (CTAActive, WarpActive, AllowNewCTA, AllocateL1,
	// ExtraL1Latency) take a few ns per call, less than a clock read, so
	// they are counted only.
	gateHooks hookGroup = iota
	// victimHooks maintain the victim store: ProbeVictim, OnEviction,
	// OnStore, OnRegResponse.
	victimHooks
	// monitorHooks feed locality and residency monitors: OnLoadOutcome,
	// OnCTALaunch, OnCTAComplete.
	monitorHooks
	// cycleHooks run per ticked or skipped span: OnCycle, NextEvent,
	// SkipCycles.
	cycleHooks
	numHookGroups
)

var hookNames = [numHookGroups]string{"gate", "victim", "monitor", "cycle"}

// sampleEvery is the sampling period of timed hooks: one call in
// sampleEvery is timed, which keeps the clock's own cost out of the
// traced pass's wall time.
const sampleEvery = 16

// hookStats accumulates one run's hook calls. All SMs of a run step on one
// goroutine (engine Workers = 1), so the counters need no locking.
type hookStats struct {
	calls [numHookGroups]int64
	timed [numHookGroups]int64
	ns    [numHookGroups]int64
}

func (h *hookStats) add(o *hookStats) {
	for g := range h.calls {
		h.calls[g] += o.calls[g]
		h.timed[g] += o.timed[g]
		h.ns[g] += o.ns[g]
	}
}

// nsPerCall is the mean sampled duration of one call of group g, net of
// the cost of reading the clock. Hooks cheaper than the clock's jitter
// (no-op policy hooks) report 0.
func (h *hookStats) nsPerCall(g hookGroup, timerNs int64) float64 {
	if h.timed[g] == 0 {
		return 0
	}
	return max(0, float64(h.ns[g]-h.timed[g]*timerNs)/float64(h.timed[g]))
}

// tracedPolicy decorates a policy without changing what it simulates: the
// name is forwarded (so memo keys and Result.Policy are unchanged) and each
// per-SM half is wrapped in a tracedSM.
type tracedPolicy struct {
	sim.Policy
	st *hookStats
}

func (p tracedPolicy) Attach(sm *sim.SM) sim.SMPolicy {
	return &tracedSM{in: p.Policy.Attach(sm), st: p.st}
}

type tracedSM struct {
	in sim.SMPolicy
	st *hookStats
}

func (t *tracedSM) begin(g hookGroup) (time.Time, bool) {
	n := t.st.calls[g]
	t.st.calls[g]++
	if n%sampleEvery != 0 {
		return time.Time{}, false
	}
	return time.Now(), true
}

func (t *tracedSM) end(g hookGroup, start time.Time) {
	t.st.timed[g]++
	t.st.ns[g] += int64(time.Since(start))
}

// ExtraStats forwards sim.ExtraStatser, so Result.Extra is unchanged.
func (t *tracedSM) ExtraStats() map[string]float64 {
	if es, ok := t.in.(sim.ExtraStatser); ok {
		return es.ExtraStats()
	}
	return nil
}

func (t *tracedSM) CTAActive(slot int) bool {
	t.st.calls[gateHooks]++
	return t.in.CTAActive(slot)
}

func (t *tracedSM) WarpActive(warpSlot int) bool {
	t.st.calls[gateHooks]++
	return t.in.WarpActive(warpSlot)
}

func (t *tracedSM) AllowNewCTA() bool {
	t.st.calls[gateHooks]++
	return t.in.AllowNewCTA()
}

func (t *tracedSM) AllocateL1(warpSlot int, pc uint32) bool {
	t.st.calls[gateHooks]++
	return t.in.AllocateL1(warpSlot, pc)
}

func (t *tracedSM) ExtraL1Latency(line memtypes.LineAddr, cycle int64) int {
	t.st.calls[gateHooks]++
	return t.in.ExtraL1Latency(line, cycle)
}

func (t *tracedSM) ProbeVictim(line memtypes.LineAddr, pc uint32, cycle int64) (bool, int) {
	start, timed := t.begin(victimHooks)
	hit, lat := t.in.ProbeVictim(line, pc, cycle)
	if timed {
		t.end(victimHooks, start)
	}
	return hit, lat
}

func (t *tracedSM) OnEviction(ev cache.Eviction, cycle int64) {
	start, timed := t.begin(victimHooks)
	t.in.OnEviction(ev, cycle)
	if timed {
		t.end(victimHooks, start)
	}
}

func (t *tracedSM) OnStore(line memtypes.LineAddr, cycle int64) {
	start, timed := t.begin(victimHooks)
	t.in.OnStore(line, cycle)
	if timed {
		t.end(victimHooks, start)
	}
}

func (t *tracedSM) OnRegResponse(req *memtypes.Request, cycle int64) {
	start, timed := t.begin(victimHooks)
	t.in.OnRegResponse(req, cycle)
	if timed {
		t.end(victimHooks, start)
	}
}

func (t *tracedSM) OnLoadOutcome(warpSlot int, pc uint32, line memtypes.LineAddr, out sim.Outcome, cycle int64) {
	start, timed := t.begin(monitorHooks)
	t.in.OnLoadOutcome(warpSlot, pc, line, out, cycle)
	if timed {
		t.end(monitorHooks, start)
	}
}

func (t *tracedSM) OnCTALaunch(slot, seq int, cycle int64) {
	start, timed := t.begin(monitorHooks)
	t.in.OnCTALaunch(slot, seq, cycle)
	if timed {
		t.end(monitorHooks, start)
	}
}

func (t *tracedSM) OnCTAComplete(slot int, cycle int64) {
	start, timed := t.begin(monitorHooks)
	t.in.OnCTAComplete(slot, cycle)
	if timed {
		t.end(monitorHooks, start)
	}
}

func (t *tracedSM) OnCycle(cycle int64) {
	start, timed := t.begin(cycleHooks)
	t.in.OnCycle(cycle)
	if timed {
		t.end(cycleHooks, start)
	}
}

func (t *tracedSM) NextEvent(now int64) (int64, bool) {
	start, timed := t.begin(cycleHooks)
	c, ok := t.in.NextEvent(now)
	if timed {
		t.end(cycleHooks, start)
	}
	return c, ok
}

func (t *tracedSM) SkipCycles(from, to int64) {
	start, timed := t.begin(cycleHooks)
	t.in.SkipCycles(from, to)
	if timed {
		t.end(cycleHooks, start)
	}
}

// tickCounter is a CycleChecker that only counts the cycles the engine
// ticked (the checker never sees fast-forwarded cycles).
type tickCounter struct{ ticked int64 }

func (c *tickCounter) CheckCycle(*sim.GPU, int64) error {
	c.ticked++
	return nil
}

// stageClock is a FaultInjector that only observes: each Stage call closes
// the running stage's interval and opens the next. The response interval
// runs to the next cycle's dispatch, so it includes the run loop's
// per-cycle bookkeeping.
type stageClock struct {
	timerNs int64
	cur     int
	since   time.Time
	ns      [len(stageList)]int64
}

func newStageClock(timerNs int64) *stageClock { return &stageClock{timerNs: timerNs, cur: -1} }

func (s *stageClock) Stage(_ *sim.GPU, stage string, _ int64) {
	now := time.Now()
	s.stop(now)
	for i, name := range stageList {
		if name == stage {
			s.cur, s.since = i, now
		}
	}
}

func (s *stageClock) stop(now time.Time) {
	if s.cur >= 0 {
		s.ns[s.cur] += int64(now.Sub(s.since)) - s.timerNs
		s.cur = -1
	}
}

// pointTrace is what the traced pass measured for one point.
type pointTrace struct {
	newNs, runNs, collectNs        int64
	hooks                          hookStats
	cycles, ticked, skipped, slept int64
	stageNs                        [len(stageList)]int64
}

// forPlan runs fn over every point of the plan, scheduled as the pass
// schedules them: groups in order, up to workers tasks of a group at once,
// each task's points back to back. fn receives the point's plan index.
func forPlan(pl plan, workers int, fn func(i int, p point)) {
	first := 0
	for _, g := range pl {
		base := make([]int, len(g))
		for t, task := range g {
			base[t] = first
			first += len(task)
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < min(workers, len(g)); w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					t := int(next.Add(1)) - 1
					if t >= len(g) {
						return
					}
					for j, p := range g[t] {
						fn(base[t]+j, p)
					}
				}
			}()
		}
		wg.Wait()
	}
}

// traceSim replays every point of the last untraced pass twice: once in
// the skipping engine under the decorator, checker and spans (its wall
// over the untraced median is the tracing overhead), and once in the
// strict engine under the stage clock. Both replays must reproduce the
// untraced results exactly.
func traceSim(ctx context.Context, spec simSpec, cfg config.Config, pl plan, want []*sim.Result, untracedWall float64, e *env, o *outcome) map[string]float64 {
	pts := pl.points()
	traces := make([]pointTrace, len(pts))
	cycles := int64(spec.windows) * int64(cfg.LB.WindowCycles)
	var mu sync.Mutex
	failf := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		o.fail(format, args...)
	}

	start := time.Now()
	forPlan(pl, e.workers, func(i int, p point) {
		tr := &traces[i]
		t0 := time.Now()
		g, err := sim.New(cfg, mustKernel(p.bench), tracedPolicy{Policy: p.policy(), st: &tr.hooks})
		t1 := time.Now()
		if err != nil {
			failf("traced %s: %v", p, err)
			return
		}
		ticks := &tickCounter{}
		g.SetChecker(ticks)
		end, err := g.RunCtx(ctx, cycles)
		t2 := time.Now()
		res := g.Collect()
		t3 := time.Now()
		tr.newNs, tr.runNs, tr.collectNs = int64(t1.Sub(t0)), int64(t2.Sub(t1)), int64(t3.Sub(t2))
		tr.cycles, tr.ticked, tr.skipped, tr.slept = end, ticks.ticked, g.SkippedCycles(), g.SleptSMCycles()
		switch {
		case err != nil:
			failf("traced %s: %v", p, err)
		case tr.ticked+tr.skipped != end:
			failf("traced %s: %d ticked + %d skipped cycles != %d", p, tr.ticked, tr.skipped, end)
		case !sameResult(res, want[i]):
			failf("traced %s: the decorated run differs from the untraced result", p)
		}
	})
	tracedWall := time.Since(start).Seconds()

	strict := cfg
	strict.Strict = true
	forPlan(pl, e.workers, func(i int, p point) {
		g, err := sim.New(strict, mustKernel(p.bench), p.policy())
		if err != nil {
			failf("strict replay %s: %v", p, err)
			return
		}
		clk := newStageClock(e.timerNs)
		g.SetFaultInjector(clk)
		_, err = g.RunCtx(ctx, cycles)
		clk.stop(time.Now())
		traces[i].stageNs = clk.ns
		switch res := g.Collect(); {
		case err != nil:
			failf("strict replay %s: %v", p, err)
		case !sameResult(res, want[i]):
			failf("strict replay %s: the strict-engine result differs from the skipping result", p)
		}
	})
	o.attempted += 2 * len(pts)

	var hooks hookStats
	var busy, runNs, allCycles, ticked, skipped, slept, stageTotal int64
	var stageNs [len(stageList)]int64
	var pointS, newMs []float64
	for _, tr := range traces {
		hooks.add(&tr.hooks)
		span := tr.newNs + tr.runNs + tr.collectNs
		busy += span
		pointS = append(pointS, float64(span)/1e9)
		newMs = append(newMs, float64(tr.newNs)/1e6)
		runNs += tr.runNs
		allCycles += tr.cycles
		ticked += tr.ticked
		skipped += tr.skipped
		slept += tr.slept
		for s := range stageNs {
			stageNs[s] += tr.stageNs[s]
			stageTotal += tr.stageNs[s]
		}
	}
	m := map[string]float64{
		"harness.points":          float64(len(pts)),
		"harness.point_p50_s":     median(pointS),
		"harness.pool_util":       float64(busy) / 1e9 / (tracedWall * float64(e.workers)),
		"sim.new_ms":              median(newMs),
		"sim.ticked_cycles":       float64(ticked),
		"sim.skipped_cycles":      float64(skipped),
		"sim.sm_sleep_ratio":      ratio(slept, allCycles*int64(cfg.GPU.NumSMs)),
		"sim.ns_per_ticked_cycle": ratio(runNs, ticked),
		"policy.gate.calls":       float64(hooks.calls[gateHooks]),
		"trace.overhead":          tracedWall / untracedWall,
	}
	// The strict replay ticks every cycle of the same runs.
	for s, name := range stageList {
		m["sim.stage."+name+"_ns"] = ratio(stageNs[s], allCycles)
		m["sim.stage."+name+"_share"] = ratio(stageNs[s], stageTotal)
	}
	hookNs := 0.0
	for _, g := range []hookGroup{victimHooks, monitorHooks, cycleHooks} {
		name := hookNames[g]
		per := hooks.nsPerCall(g, e.timerNs)
		m["policy."+name+".calls"] = float64(hooks.calls[g])
		m["policy."+name+".ns_per_call"] = per
		hookNs += per * float64(hooks.calls[g])
	}
	m["policy.share"] = hookNs / float64(runNs)
	return m
}

// timerCost measures what timing an empty interval reads, so sampled
// durations can be reported net of the clock's own cost.
func timerCost() int64 {
	best := int64(-1)
	for rep := 0; rep < 5; rep++ {
		const n = 1 << 16
		var sum time.Duration
		for i := 0; i < n; i++ {
			t := time.Now()
			sum += time.Since(t)
		}
		if c := int64(sum) / n; best < 0 || c < best {
			best = c
		}
	}
	return best
}

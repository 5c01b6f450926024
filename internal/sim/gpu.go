package sim

import (
	"context"
	"fmt"
	"sync/atomic"

	"github.com/linebacker-sim/linebacker/internal/cache"
	"github.com/linebacker-sim/linebacker/internal/config"
	"github.com/linebacker-sim/linebacker/internal/dram"
	"github.com/linebacker-sim/linebacker/internal/icnt"
	"github.com/linebacker-sim/linebacker/internal/memtypes"
	"github.com/linebacker-sim/linebacker/internal/ring"
	"github.com/linebacker-sim/linebacker/internal/workload"
)

// l2PortsFor returns how many requests the L2 services per cycle: one slice
// per two SMs, matching the paper's 16-SM / 8-slice proportion.
func l2PortsFor(numSMs int) int {
	p := numSMs / 2
	if p < 1 {
		p = 1
	}
	return p
}

// GPU ties the SMs, interconnect, shared L2 and DRAM together and runs a
// kernel under a Policy.
type GPU struct {
	cfg    config.Config
	kernel *workload.Kernel
	policy Policy

	sms    []*SM
	smpols []SMPolicy

	toL2   *icnt.Link
	fromL2 *icnt.Link

	l2        *cache.Cache
	l2Queue   ring.Buffer[*memtypes.Request]
	l2Waiters map[memtypes.LineAddr][]*memtypes.Request
	l2Spare   spareLists[*memtypes.Request]
	l2Service int64
	l2Ports   int

	dram *dram.DRAM

	nextCTA int
	cycle   int64

	checker CycleChecker
	faults  FaultInjector

	// smSleep enables per-SM and DRAM sleeping (see stepSM in event.go).
	// RunCtx turns it on unless the run is strict or has a fault
	// injector: an injector may mutate machine state (SM counters, the
	// DRAM's stall flag) behind the SM and DRAM wake caches, so a fault
	// run ticks every SM and the DRAM in every cycle.
	smSleep bool

	// dramWake caches the DRAM's next event cycle, mirroring the per-SM
	// wake cache: while the clock is below it (and nothing new was
	// enqueued — dramDirty), the dram stage applies Skip's closed-form
	// token/busy accruals instead of running the full scheduler scan.
	// Only consulted when smSleep is on.
	dramWake  int64
	dramDirty bool

	// progress publishes the cumulative committed-instruction count at
	// RunCtx checkpoints. It is the only GPU state a harness watchdog may
	// read concurrently with a running simulation.
	progress atomic.Int64
}

// CycleChecker observes the GPU at the end of simulated cycles. A non-nil
// error aborts the simulation by panic: an invariant violation means the
// engine (or a policy) mis-accounted, and continuing would only produce
// numbers derived from a broken state. internal/check implements this.
type CycleChecker interface {
	CheckCycle(g *GPU, cycle int64) error
}

// SetChecker installs (or, with nil, removes) the cycle checker.
func (g *GPU) SetChecker(c CycleChecker) { g.checker = c }

// FaultInjector observes each Step stage as it is about to execute and may
// mutate the machine or panic — the hook internal/chaos implements to force
// failures at exact (stage, cycle) points. A nil injector costs one pointer
// compare per stage.
type FaultInjector interface {
	Stage(g *GPU, stage string, cycle int64)
}

// SetFaultInjector installs (or, with nil, removes) the fault injector.
func (g *GPU) SetFaultInjector(f FaultInjector) { g.faults = f }

// stage notifies the fault injector that the named Step phase is starting.
func (g *GPU) stage(name string, cyc int64) {
	if g.faults != nil {
		g.faults.Stage(g, name, cyc)
	}
}

// New builds a GPU run. The config is copied; policies may adjust per-SM
// structures in Attach.
func New(cfg config.Config, k *workload.Kernel, pol Policy) (*GPU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := k.Validate(); err != nil {
		return nil, err
	}
	if cfg.Seed != 1 {
		// Perturb the synthetic address generators: the default seed (1)
		// leaves the kernel untouched so results are reproducible, while
		// other seeds produce independent trace instances.
		k = k.WithSeed(cfg.Seed)
	}
	g := &GPU{
		cfg:       cfg,
		kernel:    k,
		policy:    pol,
		l2:        cache.New(cfg.GPU.L2Bytes, cfg.GPU.L2Ways, 256, true),
		l2Ports:   l2PortsFor(cfg.GPU.NumSMs),
		l2Waiters: make(map[memtypes.LineAddr][]*memtypes.Request),
		dram:      dram.New(&cfg.GPU),
	}
	// Split the minimum L2 round trip across request path, service, and
	// response path.
	lat := int64(cfg.GPU.L2Latency)
	g.toL2 = icnt.New(lat*3/10, cfg.GPU.NumSMs*2)
	g.l2Service = lat * 4 / 10
	g.fromL2 = icnt.New(lat*3/10, cfg.GPU.NumSMs*2)

	for i := 0; i < cfg.GPU.NumSMs; i++ {
		sm := newSM(i, &g.cfg, k)
		smp := pol.Attach(sm)
		sm.pol = smp
		g.sms = append(g.sms, sm)
		g.smpols = append(g.smpols, smp)
	}
	return g, nil
}

// SMs exposes the SMs (for probes and tests).
func (g *GPU) SMs() []*SM { return g.sms }

// SMPolicies exposes the per-SM policy instances (for scheme statistics).
func (g *GPU) SMPolicies() []SMPolicy { return g.smpols }

// DRAM exposes the DRAM model (for traffic statistics).
func (g *GPU) DRAM() *dram.DRAM { return g.dram }

// L2 exposes the shared cache.
func (g *GPU) L2() *cache.Cache { return g.l2 }

// Cycle returns the current cycle.
func (g *GPU) Cycle() int64 { return g.cycle }

// Kernel returns the running kernel.
func (g *GPU) Kernel() *workload.Kernel { return g.kernel }

// Config returns the run configuration.
func (g *GPU) Config() *config.Config { return &g.cfg }

// Run simulates until the grid completes or maxCycles elapses (0 means use
// cfg.MaxCycles; if that is also 0, run to completion). It returns the
// final cycle count.
func (g *GPU) Run(maxCycles int64) int64 {
	// A background context never cancels, so RunCtx cannot fail.
	cyc, _ := g.RunCtx(context.Background(), maxCycles)
	return cyc
}

// checkpointCycles bounds the interval between cooperative cancellation
// checks: every monitoring-window boundary, and at least this often for
// large windows so a cancelled or watchdog-aborted run reacts promptly.
const checkpointCycles = 8192

// RunCtx simulates until the grid completes, maxCycles elapses (0 means use
// cfg.MaxCycles; if that is also 0, run to completion) or ctx is cancelled.
// Cancellation is cooperative: ctx is consulted at monitoring-window
// boundaries (more often for very long windows), where the engine also
// publishes its committed-instruction count for external watchdogs (see
// Progress). On cancellation the returned error wraps context.Cause(ctx)
// and the machine is left in a consistent between-cycles state — Collect
// and StateDump remain safe, but the run must not be resumed.
//
// The loop ticks every cycle. Unless cfg.Strict is set or a fault injector
// is attached, SMs and the DRAM sleep through their provably idle cycles
// (event.go); results and state dumps are bit-identical to strict mode
// (test-enforced, DESIGN.md §10). A livelocked machine keeps ticking with
// a flat committed-instruction count, so an external forward-progress
// watchdog still trips.
func (g *GPU) RunCtx(ctx context.Context, maxCycles int64) (int64, error) {
	if maxCycles == 0 {
		maxCycles = g.cfg.MaxCycles
	}
	every := int64(g.cfg.LB.WindowCycles)
	if every <= 0 || every > checkpointCycles {
		every = checkpointCycles
	}
	g.smSleep = !g.cfg.Strict && g.faults == nil
	g.progress.Store(g.committed())
	for {
		if maxCycles > 0 && g.cycle >= maxCycles {
			g.progress.Store(g.committed())
			return g.cycle, nil
		}
		if g.done() {
			g.progress.Store(g.committed())
			return g.cycle, nil
		}
		g.Step()
		if g.cycle%every == 0 {
			g.progress.Store(g.committed())
			if ctx.Err() != nil {
				return g.cycle, fmt.Errorf("sim: run aborted at cycle %d: %w", g.cycle, context.Cause(ctx))
			}
		}
	}
}

// committed returns the cumulative retired warp instructions over all SMs.
func (g *GPU) committed() int64 {
	var n int64
	for _, sm := range g.sms {
		n += sm.Stats.Retired
	}
	return n
}

// Progress returns the committed-instruction count published at the last
// RunCtx checkpoint. Safe to call from other goroutines while the
// simulation runs; a watchdog that sees the same value across a wall-clock
// tick is observing a livelocked machine (cycles may still be retiring, but
// no instruction commits).
func (g *GPU) Progress() int64 { return g.progress.Load() }

// done reports grid completion: all CTAs dispatched and all SMs drained.
func (g *GPU) done() bool {
	if g.nextCTA < g.kernel.GridCTAs {
		return false
	}
	for _, sm := range g.sms {
		if sm.Busy() {
			return false
		}
	}
	return g.toL2.Pending() == 0 && g.fromL2.Pending() == 0 &&
		g.l2Queue.Len() == 0 && g.dram.QueueLen() == 0 && g.dram.Inflight() == 0
}

// Step advances the whole GPU by one cycle: dispatch, the SM phase, a merge
// of the per-SM outboxes into the interconnect, and the memory phases. SMs
// step serially, in index order (DESIGN.md §9).
func (g *GPU) Step() {
	cyc := g.cycle

	g.stage("dispatch", cyc)
	g.dispatch(cyc)

	g.stage("sm", cyc)
	for _, sm := range g.sms {
		g.stepSM(sm, cyc)
	}
	// Drain the per-SM outboxes into the interconnect in SM-index order.
	// An outbox also holds requests issued outside the SM phase (register
	// traffic sent from OnRegResponse during response delivery) until this
	// merge, so it fixes their injection cycle and icnt sequence numbers —
	// and every tie-break derived from them.
	for _, sm := range g.sms {
		for sm.outbox.Len() > 0 {
			g.toL2.Send(sm.outbox.Pop(), cyc)
		}
	}

	// Requests arriving at L2.
	g.stage("l2", cyc)
	g.toL2.DeliverEach(cyc, func(req *memtypes.Request) { g.l2Queue.Push(req) })
	g.serviceL2(cyc)

	// DRAM. With sleeping enabled and no event due (and no enqueue this
	// cycle), the tick reduces to the closed-form token refill and busy
	// accrual — provably what the full tick would have done (DESIGN.md
	// §10) — and the scheduler scan is elided.
	g.stage("dram", cyc)
	if g.smSleep && cyc < g.dramWake && !g.dramDirty {
		g.dram.Skip(cyc, cyc+1)
	} else {
		active := g.dram.TickEach(cyc, func(req *memtypes.Request) { g.dramComplete(req, cyc) })
		g.dramDirty = false
		if g.smSleep {
			if active {
				// A scheduling or completing DRAM is almost always about
				// to do it again; probing it would cost as much as the
				// tick it tries to save.
				g.dramWake = cyc + 1
			} else if e, ok := g.dram.NextEvent(cyc + 1); ok {
				g.dramWake = e
			} else {
				g.dramWake = neverWake
			}
		}
	}

	// Responses arriving at SMs.
	g.stage("response", cyc)
	g.fromL2.DeliverEach(cyc, func(req *memtypes.Request) { g.sms[req.SM].handleResponse(req, cyc) })

	if g.checker != nil {
		if err := g.checker.CheckCycle(g, cyc); err != nil {
			//lbvet:panic an invariant violation means the engine mis-accounted; the harness isolates this per run
			panic(fmt.Sprintf("sim: invariant violation at cycle %d: %v", cyc, err))
		}
	}

	g.cycle++
}

// dispatch launches new CTAs into free slots, gated by each SM's policy.
func (g *GPU) dispatch(cyc int64) {
	for _, sm := range g.sms {
		if g.nextCTA >= g.kernel.GridCTAs {
			return
		}
		if !sm.HasFreeSlot() || !sm.pol.AllowNewCTA() {
			continue
		}
		if sm.launchCTA(g.nextCTA, cyc) {
			g.nextCTA++
		}
	}
}

// serviceL2 processes up to l2Ports requests from the L2 input queue. The
// queue is a ring buffer: the old slice version's `q = q[1:]` leaked the
// backing array forward every cycle, re-allocating continuously whenever
// the queue stayed busy.
func (g *GPU) serviceL2(cyc int64) {
	for n := 0; n < g.l2Ports && g.l2Queue.Len() > 0; n++ {
		if !g.l2Access(g.l2Queue.Front(), cyc) {
			break // L2 MSHRs exhausted: head-of-line retry next cycle
		}
		g.l2Queue.Pop()
	}
}

// enqueueDRAM hands a request to the DRAM and marks the wake cache dirty:
// a fresh arrival can create a schedule opportunity earlier than the last
// advertised event, so the next dram stage must run the full tick.
func (g *GPU) enqueueDRAM(req *memtypes.Request) {
	g.dram.Enqueue(req)
	g.dramDirty = true
}

// l2Access performs one L2 access; false means stall.
func (g *GPU) l2Access(req *memtypes.Request, cyc int64) bool {
	switch req.Kind {
	case memtypes.RegBackup, memtypes.RegRestore:
		// Register backup space is a dedicated off-chip region; it does not
		// pollute the L2.
		g.enqueueDRAM(req)
		return true
	case memtypes.Store:
		// Death point: the L2 is write-allocate, so a store retires here.
		// Any dirty writeback it displaces is built before the incoming
		// request is recycled (Put zeroes the object). Recycling goes back
		// to the issuing SM's pool — the L2 phase is serial, and returning
		// objects to their origin keeps every per-SM free list balanced.
		res, ev, evicted := g.l2.Store(req.Line)
		if evicted && ev.Dirty {
			g.enqueueDRAM(g.writeback(ev.Line, req.SM))
		}
		_ = res
		g.sms[req.SM].pool.Put(req)
		return true
	case memtypes.Load:
		res, ev, evicted := g.l2.Load(req.Line, 0, true)
		if evicted && ev.Dirty {
			g.enqueueDRAM(g.writeback(ev.Line, req.SM))
		}
		switch res {
		case cache.Hit:
			g.fromL2.Send(req, cyc+g.l2Service)
		case cache.HitPending:
			g.l2Waiters[req.Line] = append(g.l2Spare.list(g.l2Waiters, req.Line), req)
		case cache.Miss, cache.MissNoAlloc:
			g.enqueueDRAM(req)
		case cache.Stall:
			return false
		}
		return true
	default:
		//lbvet:panic unreachable by construction: only the four Kinds above are ever enqueued
		panic(fmt.Sprintf("sim: unexpected request kind %v at L2", req.Kind))
	}
}

// writeback builds a pooled dirty-eviction store request, drawn from the
// triggering SM's pool (only ever called from the serial memory phases).
func (g *GPU) writeback(line memtypes.LineAddr, smID int) *memtypes.Request {
	wb := g.sms[smID].pool.Get()
	wb.Line, wb.Kind, wb.SM, wb.WarpID = line, memtypes.Store, smID, -1
	return wb
}

// dramComplete routes a finished DRAM access.
func (g *GPU) dramComplete(req *memtypes.Request, cyc int64) {
	switch req.Kind {
	case memtypes.Store:
		// Writeback completion: nothing to deliver. Death point — recycle
		// to the owning SM's pool (the DRAM phase is serial).
		g.sms[req.SM].pool.Put(req)
	case memtypes.Load:
		g.l2.Fill(req.Line)
		g.fromL2.Send(req, cyc)
		ws := g.l2Waiters[req.Line]
		for _, waiter := range ws {
			g.fromL2.Send(waiter, cyc)
		}
		delete(g.l2Waiters, req.Line)
		g.l2Spare.put(ws)
	case memtypes.RegBackup, memtypes.RegRestore:
		g.fromL2.Send(req, cyc)
	}
}

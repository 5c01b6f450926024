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

	// sms holds the NumSMs SMs of the run. SMs a larger earlier run used
	// wait past its length, in the backing array, for Reuse.
	sms    []*SM
	smpols []SMPolicy

	toL2   icnt.Link
	fromL2 icnt.Link

	l2      cache.Cache
	l2Queue ring.Buffer[*memtypes.Request]
	// l2Waiters[s] holds, in arrival order, the requests merged into the
	// fill in L2 MSHR slot s; dramComplete answers them behind the fill's
	// own request and empties the list before the slot can be reused.
	l2Waiters [][]*memtypes.Request
	l2Service int64
	l2Ports   int

	dram dram.DRAM

	nextCTA int
	cycle   int64

	checker CycleChecker
	faults  FaultInjector

	// lsuPark lets an LSU park on a head-of-line MSHR stall (SM.parked).
	// RunCtx turns it on unless the run is strict or has a fault injector:
	// an injector may mutate SM state behind the park, so a fault run
	// re-derives every stall, as a strict one does.
	lsuPark bool

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

// l2MSHRs is the number of L2 MSHRs.
const l2MSHRs = 256

// New builds a GPU run. The config is copied; policies may adjust per-SM
// structures in Attach. It is Reuse on an empty machine, so a new machine
// and a re-armed one come from the same routine.
func New(cfg config.Config, k *workload.Kernel, pol Policy) (*GPU, error) {
	g := new(GPU)
	if err := g.Reuse(cfg, k, pol); err != nil {
		return nil, err
	}
	return g, nil
}

// Reuse re-arms the machine for a run of kernel k under pol with cfg, and
// leaves it indistinguishable from the one New(cfg, k, pol) builds
// (DESIGN.md §8). Every structure is emptied in place: arrays large
// enough for the new shape are resliced and cleared, and only smaller
// ones are allocated anew. Every counter, engine cache and hook (SM.Probe,
// the checker, the fault injector) starts as in a new machine, and
// requests a cut-off run left in flight go back to their SMs' pools. A
// re-armed machine holds what its largest run held.
//
// The machine's last run must have returned from RunCtx, or never
// started: a machine whose run panicked may hold a request in two places,
// and must be dropped. On a validation error the machine is unchanged.
func (g *GPU) Reuse(cfg config.Config, k *workload.Kernel, pol Policy) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if err := k.Validate(); err != nil {
		return err
	}
	if cfg.Seed != 1 {
		// Perturb the synthetic address generators: the default seed (1)
		// leaves the kernel untouched so results are reproducible, while
		// other seeds produce independent trace instances.
		k = k.WithSeed(cfg.Seed)
	}
	g.ForEachInflight(func(req *memtypes.Request) { g.sms[req.SM].pool.Put(req) })
	g.l2Queue.Reset()
	clear(g.smpols)
	sms := g.sms[:cap(g.sms)]
	if n := cfg.GPU.NumSMs - len(sms); n > 0 {
		sms = append(sms, make([]*SM, n)...)
	}
	*g = GPU{
		cfg:       cfg,
		kernel:    k,
		policy:    pol,
		sms:       sms[:cfg.GPU.NumSMs],
		smpols:    g.smpols[:0],
		toL2:      g.toL2,
		fromL2:    g.fromL2,
		l2:        g.l2,
		l2Queue:   g.l2Queue,
		l2Waiters: emptyLists(g.l2Waiters, l2MSHRs),
		l2Ports:   l2PortsFor(cfg.GPU.NumSMs),
		dram:      g.dram,
	}
	g.l2.Reset(cfg.GPU.L2Bytes, cfg.GPU.L2Ways, l2MSHRs, true)
	g.dram.Reset(&cfg.GPU)
	// Split the minimum L2 round trip across request path, service, and
	// response path.
	lat := int64(cfg.GPU.L2Latency)
	g.toL2.Reset(lat*3/10, cfg.GPU.NumSMs*2)
	g.l2Service = lat * 4 / 10
	g.fromL2.Reset(lat*3/10, cfg.GPU.NumSMs*2)

	for i, sm := range g.sms {
		if sm == nil {
			sm = new(SM)
			g.sms[i] = sm
		}
		sm.reset(i, &g.cfg, k)
		smp := pol.Attach(sm)
		sm.pol = smp
		g.smpols = append(g.smpols, smp)
	}
	return nil
}

// emptyLists returns lists resliced to n empty lists. Every list keeps its
// backing array, the ones past n too, and drops what it held.
func emptyLists[T any](lists [][]T, n int) [][]T {
	all := lists[:cap(lists)]
	for i := range all {
		clear(all[i][:cap(all[i])])
		all[i] = all[i][:0]
	}
	if len(all) < n {
		all = append(all, make([][]T, n-len(all))...)
	}
	return all[:n]
}

// SMs exposes the SMs (for probes and tests).
func (g *GPU) SMs() []*SM { return g.sms }

// SMPolicies exposes the per-SM policy instances (for scheme statistics).
func (g *GPU) SMPolicies() []SMPolicy { return g.smpols }

// DRAM exposes the DRAM model (for traffic statistics).
func (g *GPU) DRAM() *dram.DRAM { return &g.dram }

// L2 exposes the shared cache.
func (g *GPU) L2() *cache.Cache { return &g.l2 }

// Links exposes the SM→L2 and L2→SM interconnect links (for tests).
func (g *GPU) Links() (toL2, fromL2 *icnt.Link) { return &g.toL2, &g.fromL2 }

// Cycle returns the current cycle.
func (g *GPU) Cycle() int64 { return g.cycle }

// Kernel returns the running kernel.
func (g *GPU) Kernel() *workload.Kernel { return g.kernel }

// Config returns the run configuration.
func (g *GPU) Config() *config.Config { return &g.cfg }

// Run simulates until the grid completes or maxCycles elapses (0 = run to
// completion). It returns the final cycle count.
func (g *GPU) Run(maxCycles int64) int64 {
	// A background context never cancels, so RunCtx cannot fail.
	cyc, _ := g.RunCtx(context.Background(), maxCycles)
	return cyc
}

// checkpointCycles bounds the interval between cooperative cancellation
// checks: every monitoring-window boundary, and at least this often for
// large windows so a cancelled or watchdog-aborted run reacts promptly.
const checkpointCycles = 8192

// RunCtx simulates until the grid completes, maxCycles elapses (0 = run to
// completion) or ctx is cancelled.
// Cancellation is cooperative: ctx is consulted at monitoring-window
// boundaries (more often for very long windows), where the engine also
// publishes its committed-instruction count for external watchdogs (see
// Progress). On cancellation the returned error wraps context.Cause(ctx)
// and the machine is left in a consistent between-cycles state — Collect
// and StateDump remain safe, but the run must not be resumed.
//
// The loop ticks every SM in every cycle. Unless cfg.Strict is set or a
// fault injector is attached, an LSU parks on a head-of-line MSHR stall
// until the next fill (SM.parked); results and state dumps are
// bit-identical to strict mode (test-enforced, DESIGN.md §10). A
// livelocked machine keeps ticking with a flat committed-instruction
// count, so an external forward-progress watchdog still trips.
func (g *GPU) RunCtx(ctx context.Context, maxCycles int64) (int64, error) {
	every := int64(g.cfg.LB.WindowCycles)
	if every <= 0 || every > checkpointCycles {
		every = checkpointCycles
	}
	g.lsuPark = !g.cfg.Strict && g.faults == nil
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

// SkippedCycles returns 0: the engine ticks every cycle.
//
// Deprecated: it stays only because cmd/lbbench reads it.
func (g *GPU) SkippedCycles() int64 { return 0 }

// SleptSMCycles returns 0: every SM ticks in every cycle, so no SM sleeps.
//
// Deprecated: it stays only because cmd/lbbench reads it.
func (g *GPU) SleptSMCycles() int64 { return 0 }

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

	// Every SM ticks, then runs its policy's OnCycle. An idle SM's tick is
	// one compare against its wake bound per scheduler, plus one stall
	// count while its LSU is parked (DESIGN.md §10).
	g.stage("sm", cyc)
	for _, sm := range g.sms {
		sm.tick(cyc, g.lsuPark)
		sm.pol.OnCycle(cyc)
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

	// DRAM. It ticks every cycle; an idle channel costs one compare
	// against its chWake bound (DESIGN.md §10).
	g.stage("dram", cyc)
	g.dram.TickEach(cyc, func(req *memtypes.Request) { g.dramComplete(req, cyc) })

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

// l2Access performs one L2 access; false means stall.
func (g *GPU) l2Access(req *memtypes.Request, cyc int64) bool {
	switch req.Kind {
	case memtypes.RegBackup, memtypes.RegRestore:
		// Register backup space is a dedicated off-chip region; it does not
		// pollute the L2.
		g.dram.Enqueue(req)
		return true
	case memtypes.Store:
		// Death point: the L2 is write-allocate, so a store retires here,
		// back to the issuing SM's pool — the L2 phase is serial, and
		// returning objects to their origin keeps every per-SM free list
		// balanced. A dirty line it displaces goes to DRAM as a
		// writeback, which carries no Request.
		if _, ev, evicted := g.l2.Store(req.Line); evicted && ev.Dirty {
			g.dram.EnqueueWriteback(ev.Line)
		}
		g.sms[req.SM].pool.Put(req)
		return true
	case memtypes.Load:
		res, ev, evicted, slot := g.l2.Load(req.Line, 0, true)
		if evicted && ev.Dirty {
			g.dram.EnqueueWriteback(ev.Line)
		}
		switch res {
		case cache.Hit:
			g.fromL2.Send(req, cyc+g.l2Service)
		case cache.HitPending:
			g.l2Waiters[slot] = append(g.l2Waiters[slot], req)
		case cache.Miss, cache.MissNoAlloc:
			g.dram.Enqueue(req)
		case cache.Stall:
			return false
		}
		return true
	default:
		//lbvet:panic unreachable by construction: only the four Kinds above are ever enqueued
		panic(fmt.Sprintf("sim: unexpected request kind %v at L2", req.Kind))
	}
}

// dramComplete routes a finished DRAM access.
func (g *GPU) dramComplete(req *memtypes.Request, cyc int64) {
	switch req.Kind {
	case memtypes.Load:
		slot, ok := g.l2.Fill(req.Line)
		g.fromL2.Send(req, cyc)
		if ok {
			ws := g.l2Waiters[slot]
			for _, waiter := range ws {
				g.fromL2.Send(waiter, cyc)
			}
			g.l2Waiters[slot] = ws[:0]
		}
	case memtypes.RegBackup, memtypes.RegRestore:
		g.fromL2.Send(req, cyc)
	}
}

package sim

import (
	"fmt"
	"slices"

	"github.com/linebacker-sim/linebacker/internal/cache"
	"github.com/linebacker-sim/linebacker/internal/config"
	"github.com/linebacker-sim/linebacker/internal/memtypes"
	"github.com/linebacker-sim/linebacker/internal/regfile"
	"github.com/linebacker-sim/linebacker/internal/ring"
	"github.com/linebacker-sim/linebacker/internal/workload"
)

// Warp is one resident warp context.
type Warp struct {
	Alive   bool
	CTASlot int
	Idx     int // index within the CTA
	Seq     int // global CTA launch sequence (age for GTO)

	iter       int
	pcIdx      int
	readyAt    int64
	memPending int  // outstanding line requests of the current load
	retired    bool // warp fully done, including outstanding memory
}

// ready reports whether the warp can issue at the cycle. A warp keeps
// issuing past outstanding loads up to the configured memory-level
// parallelism (mlp line requests in flight).
func (w *Warp) ready(cycle int64, mlp int) bool {
	return w.Alive && w.memPending < mlp && w.readyAt <= cycle
}

// CTASlotInfo describes one CTA slot of an SM.
type CTASlotInfo struct {
	Resident  bool
	Seq       int
	FirstRN   int // first warp-register number of the CTA's allocation
	RegCount  int // warp-registers allocated
	WarpsLive int
}

// lsuOp is one line request waiting for the load/store unit. The address
// context is captured at issue so a draining store cannot be corrupted by
// the warp slot being recycled.
type lsuOp struct {
	warp    *Warp
	loadIdx int
	req     int
	isStore bool
	ctx     workload.Ctx
}

// SMStats counts per-SM pipeline and memory events.
type SMStats struct {
	Retired     int64
	IssueIdle   int64    // cycles a scheduler found no ready warp
	LoadReqs    [5]int64 // indexed by Outcome
	StoreReqs   int64
	CTALaunches int64
	CTADone     int64
}

// SM is one streaming multiprocessor.
type SM struct {
	id     int
	cfg    *config.Config
	kernel *workload.Kernel

	l1 *cache.Cache
	rf *regfile.RegFile

	warps []Warp
	ctas  []CTASlotInfo

	maxResidentCTAs int
	// freeSlots counts non-resident CTA slots — the O(1) answer behind
	// HasFreeSlot, maintained by launchCTA and completeCTA.
	freeSlots   int
	warpsPerCTA int

	// GTO scheduler state, indexed by scheduler: the last warp each
	// scheduler issued from; its live warp slots oldest first, by (CTA seq,
	// warp idx); and its wake bound, at or below the readyAt of every
	// alive, under-MLP warp it owns (see pickWarp).
	lastIssued []int
	order      [][]int
	schedWake  []int64

	lsu      ring.Buffer[lsuOp]
	lsuWidth int
	waiters  map[memtypes.LineAddr][]*Warp
	// spareWaiters recycles the waiter lists of filled lines (see
	// spareLists).
	spareWaiters spareLists[*Warp]
	outbox       ring.Buffer[*memtypes.Request]

	// pool recycles this SM's Request objects. The memory phases return
	// every dying request to the pool of the SM that issued it (req.SM), so
	// each free list stays balanced and warm for its own issuer. Get still
	// returns a zeroed object, so pool order stays invisible to simulated
	// state (DESIGN.md §8, §9).
	pool memtypes.RequestPool

	pol SMPolicy

	// nextWake is this SM's wake, the earliest cycle at which it can
	// change state again, computed by stepSM after every tick in both run
	// modes (see event.go). While the run clock is below it, a sleeping
	// engine replaces the tick with the closed-form accruals of
	// sleepCycle; simulated state is bit-identical either way. Reset to 0
	// by the two external inputs an SM has: a response delivery
	// (handleResponse) and a CTA launch (launchCTA). sleepStalled caches
	// the head-of-line MSHR stall verdict for the sleep span — the
	// predicate cannot change while the SM sleeps (only a fill changes it,
	// and a fill resets nextWake), so the per-cycle accrual avoids
	// re-deriving the head's address. slept counts the cycles this SM
	// slept (sleepCycle) instead of ticking. Diagnostic only; never part
	// of Result/StateDump.
	nextWake     int64
	sleepStalled bool
	slept        int64

	// Probe, when non-nil, observes every load and store line-request
	// (used by the Figure 2/3 working-set probes and the trace recorder).
	Probe func(warpSlot int, pc uint32, line memtypes.LineAddr, isStore bool, cycle int64)

	Stats SMStats
}

// lsuWidthDefault is the number of line requests the LSU retires per cycle.
const lsuWidthDefault = 2

// storeIssueLatency is the pipeline cost of issuing a store (the warp does
// not wait for completion).
const storeIssueLatency = 2

// loadIssueLatency is the pipeline cost of issuing a load; completion is
// tracked through the warp's outstanding-request count instead of blocking.
const loadIssueLatency = 2

// fillWakeLatency is the register writeback delay after a fill arrives.
const fillWakeLatency = 4

// newSM builds an SM for the kernel.
func newSM(id int, cfg *config.Config, k *workload.Kernel) *SM {
	g := &cfg.GPU
	sm := &SM{
		id:          id,
		cfg:         cfg,
		kernel:      k,
		l1:          cache.New(g.L1Bytes, g.L1Ways, g.L1MSHRs, false),
		rf:          regfile.New(g),
		warpsPerCTA: k.WarpsPerCTA,
		lastIssued:  make([]int, g.NumSchedulers),
		lsuWidth:    lsuWidthDefault,
		waiters:     make(map[memtypes.LineAddr][]*Warp),
	}
	for i := range sm.lastIssued {
		sm.lastIssued[i] = -1
	}
	sm.maxResidentCTAs = MaxResidentCTAs(g, k)
	sm.warps = make([]Warp, sm.maxResidentCTAs*k.WarpsPerCTA)
	// Each list gets its partition's full size, so launches never grow it.
	ns := g.NumSchedulers
	sm.order = make([][]int, ns)
	sm.schedWake = make([]int64, ns)
	for s := range sm.order {
		sm.order[s] = make([]int, 0, (len(sm.warps)-s+ns-1)/ns)
	}
	sm.ctas = make([]CTASlotInfo, sm.maxResidentCTAs)
	sm.freeSlots = sm.maxResidentCTAs
	return sm
}

// MaxResidentCTAs returns how many CTAs of the kernel fit on one SM given
// the Table 1 residency limits (warps, threads, CTA slots, register file).
func MaxResidentCTAs(g *config.GPU, k *workload.Kernel) int {
	byWarps := g.MaxWarpsPerSM / k.WarpsPerCTA
	byThreads := g.MaxThreadsPerSM / (k.WarpsPerCTA * g.SIMDWidth)
	byRegs := g.WarpRegisters() / k.RegsPerCTA()
	n := byWarps
	if byThreads < n {
		n = byThreads
	}
	if byRegs < n {
		n = byRegs
	}
	if g.MaxCTAsPerSM < n {
		n = g.MaxCTAsPerSM
	}
	if n < 1 {
		n = 1
	}
	return n
}

// --- accessors used by policies ---

// ID returns the SM index.
func (sm *SM) ID() int { return sm.id }

// L1 returns the SM's data cache.
func (sm *SM) L1() *cache.Cache { return sm.l1 }

// RF returns the SM's register file.
func (sm *SM) RF() *regfile.RegFile { return sm.rf }

// Kernel returns the running kernel.
func (sm *SM) Kernel() *workload.Kernel { return sm.kernel }

// Config returns the run configuration.
func (sm *SM) Config() *config.Config { return sm.cfg }

// MaxResident returns the CTA residency limit for this kernel.
func (sm *SM) MaxResident() int { return sm.maxResidentCTAs }

// CTA returns the slot info (copy).
func (sm *SM) CTA(slot int) CTASlotInfo { return sm.ctas[slot] }

// ResidentCTAs counts resident CTAs.
func (sm *SM) ResidentCTAs() int {
	n := 0
	for i := range sm.ctas {
		if sm.ctas[i].Resident {
			n++
		}
	}
	return n
}

// Retired returns cumulative retired warp instructions.
func (sm *SM) Retired() int64 { return sm.Stats.Retired }

// FreeSlot returns a free CTA slot index, or -1.
func (sm *SM) FreeSlot() int {
	if sm.freeSlots == 0 {
		return -1
	}
	for i := range sm.ctas {
		if !sm.ctas[i].Resident {
			return i
		}
	}
	return -1
}

// HasFreeSlot reports whether any CTA slot is free — the O(1) form of
// FreeSlot() >= 0, for the dispatch stage and the event probe, both of
// which test eligibility every cycle.
func (sm *SM) HasFreeSlot() bool { return sm.freeSlots > 0 }

// SendRegTraffic emits one register backup (write) or restore (read) line
// request directly to off-chip memory. rn identifies the register; the
// paper maps it to a dedicated backup region (here one line per register at
// a reserved address range). The request carries rn in its RN field and is
// returned so the policy can match the completion in OnRegResponse.
func (sm *SM) SendRegTraffic(kind memtypes.Kind, rn int, cycle int64) *memtypes.Request {
	if kind != memtypes.RegBackup && kind != memtypes.RegRestore {
		//lbvet:panic caller bug, not a run-time condition: only the two register kinds are valid here
		panic(fmt.Sprintf("sim: SendRegTraffic kind %v", kind))
	}
	const backupRegion = uint64(1) << 60
	line := memtypes.LineAddr(backupRegion + uint64(sm.id)<<20 + uint64(rn)*memtypes.LineSize)
	req := sm.pool.Get()
	req.Line, req.Kind, req.SM, req.WarpID, req.IssueCycle, req.RN = line, kind, sm.id, -1, cycle, rn
	sm.outbox.Push(req)
	return req
}

// ReleaseCTARegs frees the register allocation of a still-resident CTA
// whose architectural state has been backed up off-chip (Linebacker's C=1
// point). The slot stays resident; its FRN becomes meaningless until
// ReserveCTARegs.
func (sm *SM) ReleaseCTARegs(slot int) {
	if !sm.ctas[slot].Resident {
		//lbvet:panic policy bug, not a run-time condition: releasing an unoccupied slot is mis-accounting
		panic(fmt.Sprintf("sim: ReleaseCTARegs on empty slot %d", slot))
	}
	sm.rf.Free(slot)
	sm.ctas[slot].FirstRN = -1
}

// ReserveCTARegs re-allocates register space for an inactive CTA about to
// be restored, updating the slot's FRN.
func (sm *SM) ReserveCTARegs(slot, count int) (first int, ok bool) {
	if !sm.ctas[slot].Resident {
		//lbvet:panic policy bug, not a run-time condition: reserving into an unoccupied slot is mis-accounting
		panic(fmt.Sprintf("sim: ReserveCTARegs on empty slot %d", slot))
	}
	first, ok = sm.rf.Alloc(slot, count)
	if ok {
		sm.ctas[slot].FirstRN = first
	}
	return first, ok
}

// --- CTA lifecycle ---

// launchCTA places grid CTA seq into a free slot; returns false when no
// slot or registers are available.
func (sm *SM) launchCTA(seq int, cycle int64) bool {
	slot := sm.FreeSlot()
	if slot < 0 {
		return false
	}
	first, ok := sm.rf.Alloc(slot, sm.kernel.RegsPerCTA())
	if !ok {
		return false
	}
	sm.ctas[slot] = CTASlotInfo{
		Resident: true, Seq: seq,
		FirstRN: first, RegCount: sm.kernel.RegsPerCTA(),
		WarpsLive: sm.warpsPerCTA,
	}
	// The dispatcher launches CTAs in seq order, so this CTA is the youngest
	// on the SM and appending keeps every scheduler's list in age order. Its
	// warps are ready at once, so their schedulers' bounds drop to 0.
	ns := sm.cfg.GPU.NumSchedulers
	for i := 0; i < sm.warpsPerCTA; i++ {
		wi := slot*sm.warpsPerCTA + i
		sm.warps[wi] = Warp{Alive: true, CTASlot: slot, Idx: i, Seq: seq}
		sm.order[wi%ns] = append(sm.order[wi%ns], wi)
		sm.schedWake[wi%ns] = 0
	}
	sm.freeSlots--
	sm.Stats.CTALaunches++
	sm.pol.OnCTALaunch(slot, seq, cycle)
	// External input: fresh warps mean fresh events (see event.go).
	sm.nextWake = 0
	return true
}

// completeCTA retires the CTA in the slot.
func (sm *SM) completeCTA(slot int, cycle int64) {
	sm.ctas[slot].Resident = false
	sm.freeSlots++
	sm.rf.Free(slot)
	sm.Stats.CTADone++
	sm.pol.OnCTAComplete(slot, cycle)
}

// Busy reports whether any CTA is resident or memory work is in flight.
func (sm *SM) Busy() bool {
	for i := range sm.ctas {
		if sm.ctas[i].Resident {
			return true
		}
	}
	return sm.lsu.Len() > 0 || len(sm.waiters) > 0
}

// --- per-cycle pipeline ---

// tick advances the SM one cycle: schedulers issue, the LSU retires line
// requests, and the policy runs. The return value reports whether the
// front-end did any work (issued an instruction or moved an LSU request).
// After a tick that did none, no scheduler can pick a warp before its
// wake bound and the LSU is empty or stalled at its head, which is what
// stepSM's wake computation relies on (see event.go).
func (sm *SM) tick(cycle int64) bool {
	issued := sm.issue(cycle)
	moved := sm.runLSU(cycle)
	sm.pol.OnCycle(cycle)
	return issued || moved
}

// issue runs the GTO warp schedulers; true if any of them issued. A
// scheduler that issues nothing leaves its wake bound at the earliest
// readyAt of its alive, under-MLP warps (pickWarp), which is its part of
// the SM's wake (stepSM).
func (sm *SM) issue(cycle int64) bool {
	ns := sm.cfg.GPU.NumSchedulers
	issued := false
	for s := 0; s < ns; s++ {
		w := sm.pickWarp(s, cycle)
		if w < 0 {
			sm.Stats.IssueIdle++
			continue
		}
		issued = true
		sm.lastIssued[s] = w
		sm.execute(&sm.warps[w], cycle)
	}
	return issued
}

// pickWarp implements greedy-then-oldest among the scheduler's warps and
// returns the picked warp, or -1. A failed call leaves sm.schedWake[sched]
// at the earliest readyAt among the scheduler's alive, under-MLP warps
// that are not ready yet (neverWake if none): the exact value a full scan
// would find, and what stepSM folds into the SM's wake.
//
// Two pieces of per-scheduler state keep the common cases short. The age
// list sm.order[sched] makes the first eligible warp of the scan the
// oldest one. The wake bound sm.schedWake[sched] answers the failed case
// in O(1): it never exceeds the readyAt of an alive, under-MLP,
// gate-admitted warp of the scheduler, so below it no warp can be picked.
// A failed scan sets it to the exact future; an eligible warp's readyAt
// moves only when it issues, and only launchCTA, finishLoad and an opened
// gate can make a warp eligible, each lowering the bound (GateOpened), so
// a bound that answers a call equals what a scan would find. A closed
// gate needs no signal: it only delays picks, and the future ignores
// gates.
func (sm *SM) pickWarp(sched int, cycle int64) int {
	if cycle < sm.schedWake[sched] {
		return -1
	}
	mlp := sm.cfg.GPU.MaxWarpMLP
	// Greedy: stick with the last issued warp while it remains ready.
	if last := sm.lastIssued[sched]; last >= 0 {
		w := &sm.warps[last]
		if w.ready(cycle, mlp) && sm.pol.CTAActive(w.CTASlot) && sm.pol.WarpActive(last) {
			return last
		}
	}
	// Oldest: the first ready warp in age order whose gates pass. Gates are
	// consulted only for warps ready this cycle.
	future := neverWake
	for _, i := range sm.order[sched] {
		w := &sm.warps[i]
		if w.memPending >= mlp {
			continue
		}
		if w.readyAt > cycle {
			if w.readyAt < future {
				future = w.readyAt
			}
			continue
		}
		if sm.pol.CTAActive(w.CTASlot) && sm.pol.WarpActive(i) {
			return i
		}
	}
	sm.schedWake[sched] = future
	return -1
}

// GateOpened tells the issue stage that a CTAActive or WarpActive answer of
// this SM's policy may have turned from false to true, so every scheduler
// rescans at its next call instead of trusting its wake bound (see
// pickWarp). Policies call it from the hook that opens the gate. The
// zeroed bounds are also the SM's wake: stepSM folds them after the tick,
// so a gate opened in OnCycle makes the SM tick the next cycle instead of
// sleeping past it.
func (sm *SM) GateOpened() {
	for s := range sm.schedWake {
		sm.schedWake[s] = 0
	}
}

// CheckIssueBound verifies the wake bound's invariant ahead of the given
// cycle: a scheduler whose bound lies past next would answer that cycle's
// call without a scan, so none of its alive, under-MLP warps the policy
// admits may have a readyAt below the bound. A policy that opens a gate
// without calling GateOpened trips it once a warp it admitted sits below
// such a bound. Read-only; for the invariant checker.
func (sm *SM) CheckIssueBound(next int64) error {
	ns := sm.cfg.GPU.NumSchedulers
	mlp := sm.cfg.GPU.MaxWarpMLP
	for s, wake := range sm.schedWake {
		if wake <= next {
			continue
		}
		for i := s; i < len(sm.warps); i += ns {
			w := &sm.warps[i]
			if w.Alive && w.memPending < mlp && w.readyAt < wake &&
				sm.pol.CTAActive(w.CTASlot) && sm.pol.WarpActive(i) {
				return fmt.Errorf("SM%d sched %d: wake bound %d lies past warp %d (readyAt %d), which the policy admits",
					sm.id, s, wake, i, w.readyAt)
			}
		}
	}
	return nil
}

// execute issues the warp's next instruction.
func (sm *SM) execute(w *Warp, cycle int64) {
	ins := &sm.kernel.Body[w.pcIdx]
	sm.Stats.Retired++
	// Operand collector traffic: ~3 register accesses per instruction.
	base := sm.ctas[w.CTASlot].FirstRN + w.Idx*sm.kernel.RegsPerWarp()
	opReg := base + (w.pcIdx*3)%maxi(sm.kernel.RegsPerWarp()-2, 1)
	sm.rf.AccessOperands(opReg, 3, cycle)

	switch ins.Op {
	case workload.Compute:
		w.readyAt = cycle + int64(ins.Latency)
	case workload.LoadOp:
		l := &sm.kernel.Loads[ins.LoadIdx]
		if !l.ActiveAt(w.iter) {
			w.readyAt = cycle + 1 // predicated off this iteration
			break
		}
		w.readyAt = cycle + loadIssueLatency
		w.memPending += l.Coalesced
		for r := 0; r < l.Coalesced; r++ {
			sm.lsu.Push(lsuOp{warp: w, loadIdx: ins.LoadIdx, req: r, ctx: sm.ctx(w)})
		}
	case workload.StoreOp:
		l := &sm.kernel.Loads[ins.LoadIdx]
		if !l.ActiveAt(w.iter) {
			w.readyAt = cycle + 1
			break
		}
		w.readyAt = cycle + storeIssueLatency
		for r := 0; r < l.Coalesced; r++ {
			sm.lsu.Push(lsuOp{warp: w, loadIdx: ins.LoadIdx, req: r, isStore: true, ctx: sm.ctx(w)})
		}
	}
	sm.advance(w, cycle)
}

// advance moves the warp past the issued instruction, retiring the warp and
// possibly its CTA at the end of the last iteration.
func (sm *SM) advance(w *Warp, cycle int64) {
	w.pcIdx++
	if w.pcIdx < len(sm.kernel.Body) {
		return
	}
	w.pcIdx = 0
	w.iter++
	if w.iter < sm.kernel.Iterations {
		return
	}
	w.Alive = false
	// Only alive warps sit in a scheduler's age list.
	wi := warpIndex(sm, w)
	s := wi % sm.cfg.GPU.NumSchedulers
	j := slices.Index(sm.order[s], wi)
	sm.order[s] = slices.Delete(sm.order[s], j, j+1)
	if w.memPending == 0 {
		sm.retireWarp(w, cycle)
	}
	// Otherwise finishLoad retires the warp when its last request lands.
}

// retireWarp finalises a finished warp and completes its CTA when it is the
// last one standing.
func (sm *SM) retireWarp(w *Warp, cycle int64) {
	if w.retired {
		return
	}
	w.retired = true
	slot := w.CTASlot
	sm.ctas[slot].WarpsLive--
	if sm.ctas[slot].WarpsLive == 0 {
		sm.completeCTA(slot, cycle)
	}
}

// runLSU retires up to lsuWidth line requests; true if any moved.
func (sm *SM) runLSU(cycle int64) bool {
	n := 0
	for ; n < sm.lsuWidth && sm.lsu.Len() > 0; n++ {
		if !sm.processOp(sm.lsu.Front(), cycle) {
			break // head-of-line stall (MSHR full); retry next cycle
		}
		sm.lsu.Pop()
	}
	return n > 0
}

// ctx builds the address-generation context for a warp.
func (sm *SM) ctx(w *Warp) workload.Ctx {
	return workload.Ctx{SM: sm.id, CTASeq: w.Seq, Warp: w.Idx, Iter: w.iter}
}

// processOp services one line request; false means stall (retry).
func (sm *SM) processOp(op lsuOp, cycle int64) bool {
	w := op.warp
	l := &sm.kernel.Loads[op.loadIdx]
	line := sm.kernel.Address(op.loadIdx, op.ctx, op.req)

	if op.isStore {
		sm.Stats.StoreReqs++
		if sm.Probe != nil {
			sm.Probe(warpIndex(sm, w), l.PC, line, true, cycle)
		}
		sm.pol.OnStore(line, cycle)
		sm.l1.Store(line)
		req := sm.pool.Get()
		req.Line, req.Kind, req.SM, req.WarpID, req.PC, req.IssueCycle =
			line, memtypes.Store, sm.id, warpIndex(sm, w), l.PC, cycle
		sm.outbox.Push(req)
		return true
	}

	// Structural stall check first so a retried request has no side
	// effects (probes, monitors, energy counters fire exactly once).
	if !sm.l1.Probe(line) && !sm.l1.HasOutstanding(line) && !sm.l1.MSHRFree() {
		sm.l1.Stats.MSHRStalls++
		return false
	}
	if sm.Probe != nil {
		sm.Probe(warpIndex(sm, w), l.PC, line, false, cycle)
	}
	hpc := memtypes.HashPC(l.PC, sm.cfg.LB.HPCBits)
	extra := sm.pol.ExtraL1Latency(line, cycle)

	// Fast path: resident line.
	if sm.l1.Probe(line) {
		sm.l1.Load(line, hpc, true)
		sm.finishLoad(w, cycle, int64(sm.cfg.GPU.L1HitLatency+extra))
		sm.Stats.LoadReqs[OutHit]++
		sm.pol.OnLoadOutcome(warpIndex(sm, w), l.PC, line, OutHit, cycle)
		return true
	}
	// Victim cache probe before going below. A miss reports its serial
	// tag-search cost, which delays the downstream fetch's completion.
	vhit, vlat := sm.pol.ProbeVictim(line, l.PC, cycle)
	if vhit {
		sm.finishLoad(w, cycle, int64(sm.cfg.GPU.L1HitLatency+extra+vlat))
		sm.Stats.LoadReqs[OutRegHit]++
		sm.pol.OnLoadOutcome(warpIndex(sm, w), l.PC, line, OutRegHit, cycle)
		return true
	}
	allocate := sm.pol.AllocateL1(warpIndex(sm, w), l.PC)
	res, ev, evicted := sm.l1.Load(line, hpc, allocate)
	if evicted {
		sm.pol.OnEviction(ev, cycle)
	}
	switch res {
	case cache.Stall:
		// Unreachable: the structural check above covers MSHR exhaustion.
		return false
	case cache.HitPending:
		sm.waiters[line] = append(sm.spareWaiters.list(sm.waiters, line), w)
		sm.Stats.LoadReqs[OutPendingHit]++
		sm.pol.OnLoadOutcome(warpIndex(sm, w), l.PC, line, OutPendingHit, cycle)
	case cache.Miss, cache.MissNoAlloc:
		out := OutMiss
		if res == cache.MissNoAlloc {
			out = OutBypass
		}
		sm.waiters[line] = append(sm.spareWaiters.list(sm.waiters, line), w)
		req := sm.pool.Get()
		req.Line, req.Kind, req.SM, req.WarpID, req.PC, req.IssueCycle, req.ExtraLatency =
			line, memtypes.Load, sm.id, warpIndex(sm, w), l.PC, cycle, vlat
		sm.outbox.Push(req)
		sm.Stats.LoadReqs[out]++
		sm.pol.OnLoadOutcome(warpIndex(sm, w), l.PC, line, out, cycle)
	case cache.Hit:
		// Race between Probe and Load cannot happen single-threaded, but
		// keep the path correct.
		sm.finishLoad(w, cycle, int64(sm.cfg.GPU.L1HitLatency+extra))
		sm.Stats.LoadReqs[OutHit]++
		sm.pol.OnLoadOutcome(warpIndex(sm, w), l.PC, line, OutHit, cycle)
	}
	return true
}

// finishLoad resolves one of the warp's outstanding line requests after the
// given latency.
func (sm *SM) finishLoad(w *Warp, cycle, latency int64) {
	if w.memPending > 0 {
		w.memPending--
	}
	// The load's value becomes available `latency` cycles out; consumers
	// are modelled through the MLP limit rather than a hard block, so the
	// warp's readyAt is only pushed when it was already waiting at the
	// limit (scoreboard full).
	mlp := sm.cfg.GPU.MaxWarpMLP
	if w.memPending >= mlp-1 {
		if t := cycle + latency; t > w.readyAt {
			w.readyAt = t
		}
	}
	// A warp dropping back under its MLP limit becomes eligible again: its
	// scheduler's wake bound must not lie past its readyAt (see pickWarp).
	if w.Alive && w.memPending == mlp-1 {
		if s := warpIndex(sm, w) % sm.cfg.GPU.NumSchedulers; w.readyAt < sm.schedWake[s] {
			sm.schedWake[s] = w.readyAt
		}
	}
	if !w.Alive && w.memPending == 0 {
		sm.retireWarp(w, cycle)
	}
}

// handleResponse completes a request that returned from the memory system.
// This is a request death point: the object goes back to the pool once every
// waiter is woken (loads) or the policy has observed the completion
// (register traffic) — no component retains the pointer past those calls.
func (sm *SM) handleResponse(req *memtypes.Request, cycle int64) {
	// External input: whatever wake cycle the SM advertised is stale now —
	// a fill can unstall the LSU head, wake waiters, retire warps.
	sm.nextWake = 0
	switch req.Kind {
	case memtypes.Load:
		sm.l1.Fill(req.Line)
		ws := sm.waiters[req.Line]
		delete(sm.waiters, req.Line)
		for _, w := range ws {
			sm.finishLoad(w, cycle, fillWakeLatency+int64(req.ExtraLatency))
		}
		sm.spareWaiters.put(ws)
		sm.pool.Put(req)
	case memtypes.RegBackup, memtypes.RegRestore:
		sm.pol.OnRegResponse(req, cycle)
		sm.pool.Put(req)
	}
}

// spareLists holds emptied waiter lists for reuse. A line's list is handed
// back once its fill has woken every waiter, and the next line to miss
// starts from it instead of a fresh slice, so a warm machine registers
// waiters without allocating. A list only stores the order of its line's
// waiters, so which recycled backing array a line gets is invisible to
// simulated state.
type spareLists[T any] [][]T

// list returns line's waiter list in m, or an empty recycled one when the
// line has none.
func (s *spareLists[T]) list(m map[memtypes.LineAddr][]T, line memtypes.LineAddr) []T {
	if ws, ok := m[line]; ok || len(*s) == 0 {
		return ws
	}
	ws := (*s)[len(*s)-1]
	*s = (*s)[:len(*s)-1]
	return ws
}

// put recycles a list whose line has been deleted from its map and whose
// waiters have all been served.
func (s *spareLists[T]) put(ws []T) {
	if cap(ws) > 0 {
		*s = append(*s, ws[:0])
	}
}

func warpIndex(sm *SM, w *Warp) int {
	return w.CTASlot*sm.warpsPerCTA + w.Idx
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}

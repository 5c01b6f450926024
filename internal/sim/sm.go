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

// lsuOp is one line request waiting for the load/store unit. execute
// computes its line at issue, so the LSU never re-derives an address and a
// draining store cannot be corrupted by the warp slot being recycled.
type lsuOp struct {
	warp    *Warp
	line    memtypes.LineAddr
	loadIdx int32
	isStore bool
}

// SMStats counts per-SM pipeline and memory events.
type SMStats struct {
	Retired     int64
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

	l1 cache.Cache
	rf regfile.RegFile

	warps []Warp
	ctas  []CTASlotInfo

	maxResidentCTAs int
	// freeSlots counts non-resident CTA slots — the O(1) answer behind
	// HasFreeSlot, maintained by launchCTA and completeCTA.
	freeSlots   int
	warpsPerCTA int

	// GTO scheduler state, indexed by scheduler: the last warp each
	// scheduler issued from; its alive warp slots under the MLP limit,
	// oldest first by (CTA seq, warp idx); and its wake bound, at or below
	// the readyAt of every warp in that list (see pickWarp).
	lastIssued []int
	order      [][]int
	schedWake  []int64

	// opOffset[pc] is the first operand register of the instruction at pc,
	// relative to the issuing warp's first register (see execute).
	opOffset []int

	lsu      ring.Buffer[lsuOp]
	lsuWidth int
	// waiters[s] holds, in arrival order, the warps waiting on the fill
	// in L1 MSHR slot s. handleResponse empties it when the fill lands,
	// before the slot can be handed out again, so every fill the slot
	// tracks reuses one backing array.
	waiters [][]*Warp
	outbox  ring.Buffer[*memtypes.Request]

	// pool recycles this SM's Request objects. The memory phases return
	// every dying request to the pool of the SM that issued it (req.SM), so
	// each free list stays balanced and warm for its own issuer. Get still
	// returns a zeroed object, so pool order stays invisible to simulated
	// state (DESIGN.md §8, §9).
	pool memtypes.RequestPool

	pol SMPolicy

	// parked is set only when the engine parks (GPU.lsuPark): the LSU
	// head failed processOp's structural check (line neither resident nor
	// outstanding, MSHRs full), and only a fill can change that verdict.
	// Until handleResponse clears it, runLSU applies the stall's one side
	// effect without re-deriving the head's address or probing the L1. An
	// engine cache, never part of Result or StateDump.
	parked bool

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

// reset makes sm the SM that a new machine builds as SM id for kernel k,
// before the policy attaches: empty caches, register file and queues, no
// resident CTA, zero counters, no probe and no policy. Its arrays are
// resliced and cleared where large enough; its request pool keeps the
// requests it holds, since Get zeroes every one it hands out.
func (sm *SM) reset(id int, cfg *config.Config, k *workload.Kernel) {
	g := &cfg.GPU
	maxRes := MaxResidentCTAs(g, k)
	nw := maxRes * k.WarpsPerCTA
	ns := g.NumSchedulers
	sm.lsu.Reset()
	sm.outbox.Reset()
	*sm = SM{
		id:              id,
		cfg:             cfg,
		kernel:          k,
		l1:              sm.l1,
		rf:              sm.rf,
		warps:           memtypes.Reslice(sm.warps, nw),
		ctas:            memtypes.Reslice(sm.ctas, maxRes),
		maxResidentCTAs: maxRes,
		freeSlots:       maxRes,
		warpsPerCTA:     k.WarpsPerCTA,
		lastIssued:      memtypes.Reslice(sm.lastIssued, ns),
		order:           emptyLists(sm.order, ns),
		schedWake:       memtypes.Reslice(sm.schedWake, ns),
		opOffset:        memtypes.Reslice(sm.opOffset, len(k.Body)),
		lsu:             sm.lsu,
		lsuWidth:        lsuWidthDefault,
		waiters:         emptyLists(sm.waiters, g.L1MSHRs),
		outbox:          sm.outbox,
		pool:            sm.pool,
	}
	sm.l1.Reset(g.L1Bytes, g.L1Ways, g.L1MSHRs, false)
	sm.rf.Reset(g)
	for i := range sm.lastIssued {
		sm.lastIssued[i] = -1
	}
	// Each list gets its partition's full size, so launches never grow it.
	for s := range sm.order {
		if n := (nw - s + ns - 1) / ns; cap(sm.order[s]) < n {
			sm.order[s] = make([]int, 0, n)
		}
	}
	for pc := range sm.opOffset {
		sm.opOffset[pc] = pc * 3 % max(k.RegsPerWarp()-2, 1)
	}
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
func (sm *SM) L1() *cache.Cache { return &sm.l1 }

// RF returns the SM's register file.
func (sm *SM) RF() *regfile.RegFile { return &sm.rf }

// Kernel returns the running kernel.
func (sm *SM) Kernel() *workload.Kernel { return sm.kernel }

// Config returns the run configuration.
func (sm *SM) Config() *config.Config { return sm.cfg }

// MaxResident returns the CTA residency limit for this kernel.
func (sm *SM) MaxResident() int { return sm.maxResidentCTAs }

// CTA returns the slot info (copy).
func (sm *SM) CTA(slot int) CTASlotInfo { return sm.ctas[slot] }

// ResidentCTAs counts resident CTAs.
func (sm *SM) ResidentCTAs() int { return len(sm.ctas) - sm.freeSlots }

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
// FreeSlot() >= 0, for the dispatch stage, which tests it every cycle.
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
	return sm.ResidentCTAs() > 0 || sm.lsu.Len() > 0 || sm.l1.OutstandingFills() > 0
}

// --- per-cycle pipeline ---

// tick advances the SM's front end one cycle: schedulers issue and the
// LSU retires line requests; Step runs the policy afterwards. park lets
// the LSU park on a head-of-line stall (see parked). An SM with nothing to
// do pays one compare per scheduler and, with a non-empty LSU, one runLSU
// call, which only counts the stall while the LSU is parked.
func (sm *SM) tick(cycle int64, park bool) {
	sm.issue(cycle)
	if sm.lsu.Len() > 0 {
		sm.runLSU(cycle, park)
	}
}

// issue runs the GTO warp schedulers. A scheduler below its wake bound
// is skipped without calling pickWarp, which would answer -1 from the same
// compare.
func (sm *SM) issue(cycle int64) {
	for s := range sm.schedWake {
		if cycle < sm.schedWake[s] {
			continue
		}
		w := sm.pickWarp(s, cycle)
		if w < 0 {
			continue
		}
		sm.lastIssued[s] = w
		sm.execute(&sm.warps[w], cycle)
	}
}

// neverWake is the wake bound of a scheduler none of whose listed warps
// will become ready on its own: only launchCTA, finishLoad or GateOpened
// can lower it again.
const neverWake = int64(1)<<62 - 1

// pickWarp implements greedy-then-oldest among the scheduler's warps and
// returns the picked warp, or -1. A failed call leaves sm.schedWake[sched]
// at the earliest readyAt among the scheduler's alive, under-MLP warps
// that are not ready yet (neverWake if none): the exact value a full scan
// would find.
//
// Two pieces of per-scheduler state keep the common cases short. The age
// list sm.order[sched] holds exactly the scheduler's alive warps under the
// MLP limit, the only ones that can issue, so the first eligible warp of
// the scan is the oldest one and warps blocked on memory cost nothing.
// The wake bound sm.schedWake[sched] answers the failed case in O(1): it
// never exceeds the readyAt of a listed, gate-admitted warp, so below it
// no warp can be picked. A failed scan sets it to the exact future; a
// listed warp's readyAt moves only when it issues, and only launchCTA,
// finishLoad and an opened gate can make a warp eligible, each lowering
// the bound (GateOpened), so a bound that answers a call equals what a
// scan would find. A closed gate needs no signal: it only delays picks,
// and the future ignores gates.
func (sm *SM) pickWarp(sched int, cycle int64) int {
	if cycle < sm.schedWake[sched] {
		return -1
	}
	// Greedy: stick with the last issued warp while it remains ready.
	if last := sm.lastIssued[sched]; last >= 0 {
		w := &sm.warps[last]
		if w.ready(cycle, sm.cfg.GPU.MaxWarpMLP) && sm.pol.CTAActive(w.CTASlot) && sm.pol.WarpActive(last) {
			return last
		}
	}
	// Oldest: the first ready warp in age order whose gates pass. Gates are
	// consulted only for warps ready this cycle.
	future := neverWake
	for _, i := range sm.order[sched] {
		w := &sm.warps[i]
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
// pickWarp). Policies call it from the hook that opens the gate, OnCycle
// included: the schedulers see the zeroed bounds in the SM's next tick.
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
	sm.rf.AccessOperands(base+sm.opOffset[w.pcIdx], 3, cycle)

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
		if w.memPending >= sm.cfg.GPU.MaxWarpMLP {
			// At its MLP limit the warp cannot issue; finishLoad lists it
			// again when a request lands.
			sm.unlistWarp(warpIndex(sm, w))
		}
		sm.pushOps(w, ins.LoadIdx, l.Coalesced, false)
	case workload.StoreOp:
		l := &sm.kernel.Loads[ins.LoadIdx]
		if !l.ActiveAt(w.iter) {
			w.readyAt = cycle + 1
			break
		}
		w.readyAt = cycle + storeIssueLatency
		sm.pushOps(w, ins.LoadIdx, l.Coalesced, true)
	}
	sm.advance(w, cycle)
}

// pushOps queues the n line requests of the warp's access to load li at
// its current iteration, each with its line address.
func (sm *SM) pushOps(w *Warp, li, n int, isStore bool) {
	c := workload.Ctx{SM: sm.id, CTASeq: w.Seq, Warp: w.Idx, Iter: w.iter}
	for r := range n {
		sm.lsu.Push(lsuOp{warp: w, line: sm.kernel.Address(li, c, r), loadIdx: int32(li), isStore: isStore})
	}
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
	// Only alive warps sit in a scheduler's age list; one at its MLP limit
	// has already left it.
	if w.memPending < sm.cfg.GPU.MaxWarpMLP {
		sm.unlistWarp(warpIndex(sm, w))
	}
	if w.memPending == 0 {
		sm.retireWarp(w, cycle)
	}
	// Otherwise finishLoad retires the warp when its last request lands.
}

// unlistWarp removes warp slot wi from its scheduler's age list.
func (sm *SM) unlistWarp(wi int) {
	s := wi % sm.cfg.GPU.NumSchedulers
	j := slices.Index(sm.order[s], wi)
	sm.order[s] = slices.Delete(sm.order[s], j, j+1)
}

// listWarp inserts warp slot wi into its scheduler's age list at its age
// position. The list never outgrows the capacity reset gave it, so the
// insert does not allocate.
func (sm *SM) listWarp(wi int) {
	s := wi % sm.cfg.GPU.NumSchedulers
	l := sm.order[s]
	age := sm.age(wi)
	j := 0
	for j < len(l) && sm.age(l[j]) < age {
		j++
	}
	sm.order[s] = slices.Insert(l, j, wi)
}

// age orders warp slots by (CTA seq, warp idx) as one integer, the key of
// the scheduler age lists.
func (sm *SM) age(wi int) int {
	w := &sm.warps[wi]
	return w.Seq*sm.warpsPerCTA + w.Idx
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

// runLSU retires up to lsuWidth line requests. A head that stalls (MSHR
// full) blocks the queue and retries next cycle. With park set the LSU
// parks on it instead: until a fill clears parked, each retry only counts
// the stall, which is all processOp's retry would do. Strict runs never
// park: they re-derive the stall every cycle and stay the per-cycle
// reference the strict-vs-default oracles hold the parked verdict to.
func (sm *SM) runLSU(cycle int64, park bool) {
	if park && sm.parked {
		sm.l1.Stats.MSHRStalls++
		return
	}
	stalled := false
	for n := 0; n < sm.lsuWidth && sm.lsu.Len() > 0; n++ {
		if !sm.processOp(sm.lsu.Front(), cycle) {
			stalled = true
			break
		}
		sm.lsu.Pop()
	}
	sm.parked = park && stalled
}

// CheckLSUPark verifies a parked LSU's verdict: its head must be a load
// whose line is neither resident nor outstanding in the L1 while every
// MSHR is taken, the state only a fill can change. A park that outlives
// a fill, or that was set without a stall, trips it. Read-only; for the
// invariant checker.
func (sm *SM) CheckLSUPark() error {
	if !sm.parked {
		return nil
	}
	if sm.lsu.Len() == 0 {
		return fmt.Errorf("SM%d: LSU parked with an empty queue", sm.id)
	}
	op := sm.lsu.Front()
	if op.isStore {
		return fmt.Errorf("SM%d: LSU parked on a store", sm.id)
	}
	line := op.line
	switch {
	case sm.l1.Lookup(line).Resident():
		return fmt.Errorf("SM%d: LSU parked on line %#x, which is resident", sm.id, uint64(line))
	case sm.l1.MSHRSlot(line) >= 0:
		return fmt.Errorf("SM%d: LSU parked on line %#x, which is outstanding", sm.id, uint64(line))
	case sm.l1.MSHRFree():
		return fmt.Errorf("SM%d: LSU parked on line %#x with an MSHR free", sm.id, uint64(line))
	}
	return nil
}

// processOp services one line request; false means stall (retry).
func (sm *SM) processOp(op lsuOp, cycle int64) bool {
	w, line := op.warp, op.line
	l := &sm.kernel.Loads[op.loadIdx]

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

	// One walk of the set serves the structural stall check and the
	// access. The check comes first so a retried request has no side
	// effects (probes, monitors, energy counters fire exactly once).
	// Nothing between the walk and the access writes the L1: the Probe
	// hook only observes, HashPC is pure, and ExtraL1Latency, ProbeVictim
	// and AllocateL1 never touch L1 tags or MSHRs. LoadFrom panics on a
	// walk that went stale, so a hook that starts writing the L1 fails
	// every run that loads.
	lk := sm.l1.Lookup(line)
	if lk.Stall() {
		sm.l1.Stats.MSHRStalls++
		return false
	}
	if sm.Probe != nil {
		sm.Probe(warpIndex(sm, w), l.PC, line, false, cycle)
	}
	hpc := memtypes.HashPC(l.PC, sm.cfg.LB.HPCBits)
	extra := sm.pol.ExtraL1Latency(line, cycle)

	// Fast path: resident line.
	if lk.Resident() {
		sm.l1.LoadFrom(&lk, hpc, true)
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
	res, ev, evicted, slot := sm.l1.LoadFrom(&lk, hpc, allocate)
	if evicted {
		sm.pol.OnEviction(ev, cycle)
	}
	// The walk found the line neither resident nor stalled, so the access
	// merged into a fill in flight (HitPending) or started one.
	sm.waiters[slot] = append(sm.waiters[slot], w)
	out := OutPendingHit
	if res != cache.HitPending {
		out = OutMiss
		if res == cache.MissNoAlloc {
			out = OutBypass
		}
		req := sm.pool.Get()
		req.Line, req.Kind, req.SM, req.WarpID, req.PC, req.IssueCycle, req.ExtraLatency =
			line, memtypes.Load, sm.id, warpIndex(sm, w), l.PC, cycle, vlat
		sm.outbox.Push(req)
	}
	sm.Stats.LoadReqs[out]++
	sm.pol.OnLoadOutcome(warpIndex(sm, w), l.PC, line, out, cycle)
	return true
}

// finishLoad resolves one of the warp's outstanding line requests after the
// given latency.
func (sm *SM) finishLoad(w *Warp, cycle, latency int64) {
	dec := w.memPending > 0
	if dec {
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
	// A warp dropping back under its MLP limit becomes eligible again: it
	// rejoins its scheduler's age list, and the scheduler's wake bound must
	// not lie past its readyAt (see pickWarp). Only a real decrement
	// crosses the limit; a warp already under it is listed.
	if w.Alive && w.memPending == mlp-1 {
		wi := warpIndex(sm, w)
		if dec {
			sm.listWarp(wi)
		}
		if s := wi % sm.cfg.GPU.NumSchedulers; w.readyAt < sm.schedWake[s] {
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
	// A fill is the only event that can clear a head-of-line stall, so
	// any response unparks the LSU: stores queue behind the head, the L1
	// is write-no-allocate, Resize runs only at Attach and no policy hook
	// writes L1 tags or MSHRs.
	sm.parked = false
	switch req.Kind {
	case memtypes.Load:
		if slot, ok := sm.l1.Fill(req.Line); ok {
			ws := sm.waiters[slot]
			for _, w := range ws {
				sm.finishLoad(w, cycle, fillWakeLatency+int64(req.ExtraLatency))
			}
			sm.waiters[slot] = ws[:0]
		}
		sm.pool.Put(req)
	case memtypes.RegBackup, memtypes.RegRestore:
		sm.pol.OnRegResponse(req, cycle)
		sm.pool.Put(req)
	}
}

func warpIndex(sm *SM, w *Warp) int {
	return w.CTASlot*sm.warpsPerCTA + w.Idx
}

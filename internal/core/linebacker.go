package core

import (
	"fmt"

	"github.com/linebacker-sim/linebacker/internal/cache"
	"github.com/linebacker-sim/linebacker/internal/memtypes"
	"github.com/linebacker-sim/linebacker/internal/sim"
)

// Options selects which Linebacker mechanisms are enabled, supporting the
// Figure 11 ablation:
//
//   - Victim Caching:            Selection=false, Throttling=false
//   - Selective Victim Caching:  Selection=true,  Throttling=false
//   - Linebacker (full):         Selection=true,  Throttling=true
type Options struct {
	// Selection enables per-load locality monitoring; when false every
	// evicted line is preserved (including streaming data).
	Selection bool
	// Throttling enables IPC-driven CTA throttling with register
	// backup/restore (dynamically unused registers become victim space).
	Throttling bool
	// VTTWays overrides the configured partition associativity when > 0
	// (Figure 10 sweep).
	VTTWays int
}

// Policy is the Linebacker scheme.
type Policy struct {
	opts Options
}

// New builds the full Linebacker policy (selection + throttling).
func New() *Policy { return &Policy{opts: Options{Selection: true, Throttling: true}} }

// NewWith builds a Linebacker variant.
func NewWith(opts Options) *Policy { return &Policy{opts: opts} }

// Name implements sim.Policy.
func (p *Policy) Name() string {
	switch {
	case p.opts.Selection && p.opts.Throttling:
		return "Linebacker"
	case p.opts.Selection:
		return "SelectiveVictimCaching"
	case p.opts.Throttling:
		return "Throttling+VictimCaching"
	default:
		return "VictimCaching"
	}
}

// Attach implements sim.Policy.
func (p *Policy) Attach(sm *sim.SM) sim.SMPolicy {
	return newSMState(sm, p.opts)
}

// phase is the Linebacker controller state.
type phase uint8

const (
	phaseMonitoring phase = iota
	phaseActive
	phaseDisabled
)

// slotState tracks a CTA slot through the throttle life cycle.
type slotState uint8

const (
	slotRunning slotState = iota
	slotBackingUp
	slotInactive  // registers backed up (C=1), space released
	slotRestoring // registers streaming back from memory
)

// transit tracks an in-flight backup or restore of one CTA.
type transit struct {
	slot     int
	firstRN  int
	count    int
	sent     int
	done     int
	inflight int
	restore  bool
}

// SMState is the per-SM Linebacker instance (the paper's LM + VTT + CTL).
type SMState struct {
	sim.BasePolicy
	sm   *sim.SM
	opts Options

	lm  *LoadMonitor
	vtt *VTT

	phase    phase
	windows  int
	prevSet  map[uint32]bool // high-locality HPCs of the previous window
	selected map[uint32]bool

	// CTL: IPC monitor.
	windowStart   int64
	retiredStart  int64
	prevIPC       float64
	bestIPC       float64
	throttleFloor float64 // IPC that must be exceeded before throttling again
	cooldown      bool    // skip one window after a backup/restore completes
	exploring     bool    // initial descent: throttle while it does not hurt
	havePrevIPC   bool

	// CTL: CTA manager.
	slotStates    []slotState
	inactiveStack []int // LIFO of backed-up slots
	trans         *transit
	targetActive  int

	// Energy/stat counters.
	ctaMgrAccesses   int64
	hpcAccesses      int64
	backupRegs       int64
	restoreRegs      int64
	throttleEvents   int64
	reactivations    int64
	victimByteCycles float64 // integral of victim capacity over cycles
	unusedByteCycles float64 // integral of unallocated register bytes
	cycles           int64
	monitorWindows   int
	regHitSteps      int64
	regHits          int64
}

func newSMState(sm *sim.SM, opts Options) *SMState {
	cfg := sm.Config()
	ways := cfg.LB.VTTWays
	if opts.VTTWays > 0 {
		ways = opts.VTTWays
	}
	sets := sm.L1().Sets()
	s := &SMState{
		sm:   sm,
		opts: opts,
		lm:   NewLoadMonitor(cfg.LB.LMEntries),
		vtt: NewVTT(sets, ways, partitionsFor(cfg.LB.MaxPartitions, cfg.LB.VTTWays, ways),
			cfg.LB.RegOffset, cfg.GPU.WarpRegisters()),
		slotStates: make([]slotState, sm.MaxResident()),
		selected:   map[uint32]bool{},
		prevSet:    map[uint32]bool{},
	}
	if opts.Selection {
		s.phase = phaseMonitoring
		// During monitoring the VTT keeps tags only; all partitions may
		// hold tags regardless of register occupancy.
		s.vtt.SetUsable(0)
	} else {
		// Preserve-everything victim caching starts immediately.
		s.phase = phaseActive
		s.recomputePartitions()
	}
	s.targetActive = sm.MaxResident()
	return s
}

// partitionsFor keeps the total victim tag capacity constant across the
// Figure 10 associativity sweep: the default is 8 partitions of 4 ways
// (32 ways total); a 1-way VP configuration gets 32 partitions, a 16-way
// one gets 2, etc.
func partitionsFor(defaultParts, defaultWays, ways int) int {
	total := defaultParts * defaultWays
	n := total / ways
	if n < 1 {
		n = 1
	}
	return n
}

// --- victim space management ---

// recomputePartitions re-derives which VTT partitions are usable from the
// largest live register number.
func (s *SMState) recomputePartitions() {
	if s.phase != phaseActive {
		return
	}
	lrn := s.sm.RF().LargestLiveRN()
	s.vtt.SetUsable(s.vtt.FirstUsableFor(lrn))
}

// --- sim.SMPolicy hooks ---

// CTAActive implements sim.SMPolicy: only running CTAs issue.
func (s *SMState) CTAActive(slot int) bool { return s.slotStates[slot] == slotRunning }

// AllowNewCTA implements sim.SMPolicy: inactive CTAs are re-scheduled in
// priority over new launches, and launches stop while throttled below the
// residency limit.
func (s *SMState) AllowNewCTA() bool {
	if !s.opts.Throttling || s.phase != phaseActive {
		return true
	}
	if len(s.inactiveStack) > 0 || s.trans != nil {
		return false
	}
	return s.activeCount() < s.targetActive
}

func (s *SMState) activeCount() int {
	n := 0
	for slot := 0; slot < s.sm.MaxResident(); slot++ {
		if s.sm.CTA(slot).Resident && s.slotStates[slot] == slotRunning {
			n++
		}
	}
	return n
}

// ProbeVictim implements sim.SMPolicy: on an L1 miss, search the VTT; a hit
// is serviced by a register-file read (a "Reg hit").
func (s *SMState) ProbeVictim(line memtypes.LineAddr, pc uint32, cycle int64) (bool, int) {
	if s.phase != phaseActive || s.vtt.ActiveParts() == 0 {
		return false, 0
	}
	rn, steps, ok := s.vtt.Probe(line)
	if !ok {
		// A miss searched every active partition; the engine adds this to
		// the subsequent fetch's latency (the paper's argument against
		// low-associativity partitions is exactly this serial search).
		return false, steps * s.sm.Config().LB.VPAccessLatency
	}
	lat := steps * s.sm.Config().LB.VPAccessLatency
	if s.sm.RF().VictimRead(rn, cycle) {
		lat += 2 // register bank conflict with operand traffic
	}
	s.regHitSteps += int64(steps)
	s.regHits++
	return true, lat
}

// OnEviction implements sim.SMPolicy: preserve useful victim lines.
func (s *SMState) OnEviction(ev cache.Eviction, cycle int64) {
	s.hpcAccesses++
	switch s.phase {
	case phaseMonitoring:
		// Tags only: remember what was evicted to measure reuse.
		s.vtt.Insert(ev.Line)
	case phaseActive:
		if s.opts.Selection && !s.selected[ev.HPC] {
			return // not a high-locality load's line: drop it
		}
		if rn, _, ok := s.vtt.Insert(ev.Line); ok {
			s.sm.RF().VictimWrite(rn, cycle)
		}
	}
}

// OnLoadOutcome implements sim.SMPolicy: during monitoring, count per-load
// hits (L1 hit or victim-tag hit) and misses.
func (s *SMState) OnLoadOutcome(warpSlot int, pc uint32, line memtypes.LineAddr, out sim.Outcome, cycle int64) {
	s.hpcAccesses++
	if s.phase != phaseMonitoring {
		return
	}
	hpc := memtypes.HashPC(pc, s.sm.Config().LB.HPCBits)
	// A merged (pending) access found its line present-in-flight: it is a
	// locality signal exactly like a hit for per-load classification.
	hit := out == sim.OutHit || out == sim.OutPendingHit
	if !hit {
		// The engine's ProbeVictim returned false during monitoring (no
		// data is stored); check the tags here for the LM.
		if _, _, ok := s.vtt.Probe(line); ok {
			hit = true
		}
	}
	s.lm.Observe(hpc, pc, hit)
}

// OnStore implements sim.SMPolicy: victim copies of written lines are
// invalidated so the victim cache never holds dirty data.
func (s *SMState) OnStore(line memtypes.LineAddr, cycle int64) {
	if s.phase == phaseActive && s.vtt.ActiveParts() > 0 {
		s.vtt.InvalidateLine(line)
	}
}

// OnCTALaunch implements sim.SMPolicy.
func (s *SMState) OnCTALaunch(slot, seq int, cycle int64) {
	s.ctaMgrAccesses++
	s.slotStates[slot] = slotRunning
	s.recomputePartitions()
}

// OnCTAComplete implements sim.SMPolicy: an inactive CTA is re-scheduled in
// priority when an active CTA finishes.
func (s *SMState) OnCTAComplete(slot int, cycle int64) {
	s.ctaMgrAccesses++
	s.slotStates[slot] = slotRunning // empty slot defaults to runnable
	s.recomputePartitions()
	if s.opts.Throttling && s.phase == phaseActive &&
		len(s.inactiveStack) > 0 && s.trans == nil && s.activeCount() < s.targetActive {
		s.startRestore(cycle)
	}
}

// OnRegResponse implements sim.SMPolicy: one register finished its backup
// or restore transfer.
func (s *SMState) OnRegResponse(req *memtypes.Request, cycle int64) {
	t := s.trans
	if t == nil {
		return
	}
	t.inflight--
	t.done++
	if t.done < t.count {
		return
	}
	// Transfer complete.
	if t.restore {
		s.finishRestore(t, cycle)
	} else {
		s.finishBackup(t, cycle)
	}
	s.trans = nil
	// Outside the initial descent, skip the transition window before the
	// next measurement; during exploration the short backup transient is
	// tolerated to keep the one-CTA-per-window pace of the paper.
	if !s.exploring {
		s.cooldown = true
	}
}

// OnCycle implements sim.SMPolicy: drain the backup/restore buffer and run
// window boundaries.
func (s *SMState) OnCycle(cycle int64) {
	s.cycles++
	if s.phase == phaseActive {
		s.victimByteCycles += float64(s.vtt.CapacityBytes())
	}
	s.unusedByteCycles += float64(s.sm.RF().StaticallyUnusedBytes())
	if t := s.trans; t != nil {
		s.pumpTransfer(t, cycle)
	}
	cfg := s.sm.Config()
	if cycle-s.windowStart >= int64(cfg.LB.WindowCycles) {
		s.endWindow(cycle)
	}
}

// pumpTransfer issues register transfers through the 6-entry buffer.
func (s *SMState) pumpTransfer(t *transit, cycle int64) {
	buf := s.sm.Config().LB.BackupBufEntries
	for t.inflight < buf && t.sent < t.count {
		rn := t.firstRN + t.sent
		if t.restore {
			s.sm.RF().RestoreWrite(rn, cycle)
			s.sm.SendRegTraffic(memtypes.RegRestore, rn, cycle)
			s.restoreRegs++
		} else {
			s.sm.RF().BackupRead(rn, cycle)
			s.sm.SendRegTraffic(memtypes.RegBackup, rn, cycle)
			s.backupRegs++
		}
		t.sent++
		t.inflight++
	}
}

// --- window boundary / CTL decisions ---

// endWindow closes a monitoring window: it measures the window's IPC and
// runs the phase's decision (monitoring verdict or CTL throttle step).
func (s *SMState) endWindow(cycle int64) {
	cfg := s.sm.Config()
	elapsed := cycle - s.windowStart
	retired := s.sm.Retired() - s.retiredStart
	ipc := float64(retired) / float64(elapsed)
	s.windowStart = cycle
	s.retiredStart = s.sm.Retired()
	s.windows++

	if ipc > s.bestIPC {
		// Track the best window IPC across all phases so the reactivation
		// guard compares against the pre-throttle level too.
		s.bestIPC = ipc
	}
	switch s.phase {
	case phaseMonitoring:
		s.monitorWindows++
		current, confirmed := s.lm.EndWindow(cfg.LB.HitThreshold)
		s.monitoringDecision(current, confirmed, cycle)
	case phaseActive:
		if !s.opts.Throttling {
			break
		}
		if s.cooldown {
			// The window just ended contains a backup/restore transition;
			// measure the next steady window instead.
			s.cooldown = false
			break
		}
		if s.havePrevIPC && s.prevIPC > 0 && s.trans == nil {
			vari := (ipc - s.prevIPC) / s.prevIPC
			// Stepwise throttling can drift IPC down without any single
			// window tripping the lower bound; treat a drop below the best
			// observed window like a per-window drop (the paper's "detects
			// such slowdown" reactivation trigger).
			drifted := s.bestIPC > 0 && (ipc-s.bestIPC)/s.bestIPC < cfg.LB.IPCVarLower/2
			// During the initial descent after monitoring, keep throttling
			// as long as performance is not degrading (each throttled CTA
			// adds victim partitions, so the gradient often appears only
			// after several steps); afterwards require a clear improvement.
			wantMore := vari > cfg.LB.IPCVarUpper ||
				(s.exploring && vari > cfg.LB.IPCVarLower && !drifted)
			switch {
			case wantMore && s.activeCount() > 1 && ipc > s.throttleFloor:
				s.startThrottle(cycle)
			case (vari < cfg.LB.IPCVarLower || drifted) && len(s.inactiveStack) > 0:
				// Throttling hurt: restore, and do not try again until the
				// IPC ever exceeds the level throttling failed to beat
				// (prevents throttle/restore oscillation on insensitive
				// kernels — the paper tunes its ±10% bounds for the same
				// reason).
				s.exploring = false
				s.throttleFloor = s.bestIPC * (1 + cfg.LB.IPCVarUpper/2)
				s.startRestore(cycle)
			}
		}
	}
	s.prevIPC = ipc
	s.havePrevIPC = true
}

// monitorAction is the outcome of one monitoring window.
type monitorAction uint8

const (
	monitorContinue monitorAction = iota
	monitorActivate
	monitorDisable
)

// decideMonitoring applies the paper's four monitoring rules as a pure
// function of the window's high-locality sets:
//
//  1. the whole previous set must repeat to confirm (a strict subset tags
//     nothing and monitoring continues);
//  2. no high-locality loads in the first two windows disables Linebacker;
//  3. monitoring otherwise continues, bounded by maxWindows;
//  4. on timeout, settle for the two-window-confirmed loads if any.
func decideMonitoring(curSet, prevSet map[uint32]bool, confirmed []uint32, windows, maxWindows int) (monitorAction, map[uint32]bool) {
	if len(curSet) > 0 && len(prevSet) > 0 && sameSet(curSet, prevSet) {
		return monitorActivate, curSet
	}
	if windows >= 2 && len(curSet) == 0 && len(prevSet) == 0 {
		return monitorDisable, nil
	}
	if windows >= maxWindows {
		if len(confirmed) > 0 {
			set := map[uint32]bool{}
			for _, h := range confirmed {
				set[h] = true
			}
			return monitorActivate, set
		}
		return monitorDisable, nil
	}
	return monitorContinue, curSet
}

// monitoringDecision applies decideMonitoring's outcome to the SM state.
func (s *SMState) monitoringDecision(current, confirmed []uint32, cycle int64) {
	curSet := map[uint32]bool{}
	for _, h := range current {
		curSet[h] = true
	}
	action, set := decideMonitoring(curSet, s.prevSet, confirmed, s.windows, s.sm.Config().LB.MaxMonitorWindows)
	switch action {
	case monitorActivate:
		s.activate(set, cycle)
	case monitorDisable:
		s.phase = phaseDisabled
		s.vtt.InvalidateAll()
		s.vtt.SetUsable(s.vtt.MaxParts())
	default:
		s.prevSet = set
	}
}

// activate transitions monitoring → active victim caching.
func (s *SMState) activate(selected map[uint32]bool, cycle int64) {
	s.selected = selected
	s.phase = phaseActive
	s.vtt.InvalidateAll()
	s.recomputePartitions()
	if s.opts.Throttling {
		// The paper proactively throttles one CTA right after monitoring.
		s.exploring = true
		s.startThrottle(cycle)
	}
}

// startThrottle deactivates the active CTA with the largest slot index and
// begins backing up its registers.
func (s *SMState) startThrottle(cycle int64) {
	if s.trans != nil {
		return
	}
	slot := -1
	for i := s.sm.MaxResident() - 1; i >= 0; i-- {
		if s.sm.CTA(i).Resident && s.slotStates[i] == slotRunning {
			slot = i
			break
		}
	}
	if slot < 0 {
		return
	}
	info := s.sm.CTA(slot)
	s.slotStates[slot] = slotBackingUp
	s.targetActive = s.activeCount()
	s.trans = &transit{slot: slot, firstRN: info.FirstRN, count: info.RegCount}
	s.throttleEvents++
	s.ctaMgrAccesses++
	s.pumpTransfer(s.trans, cycle)
}

// finishBackup marks the CTA inactive (C=1), releases its register space
// and extends the victim cache.
func (s *SMState) finishBackup(t *transit, cycle int64) {
	s.slotStates[t.slot] = slotInactive
	s.inactiveStack = append(s.inactiveStack, t.slot)
	s.sm.ReleaseCTARegs(t.slot)
	s.recomputePartitions()
	s.ctaMgrAccesses++
}

// startRestore re-activates the most recently throttled CTA: re-reserve its
// registers (shrinking the victim cache first) and stream them back.
func (s *SMState) startRestore(cycle int64) {
	if s.trans != nil || len(s.inactiveStack) == 0 {
		return
	}
	slot := s.inactiveStack[len(s.inactiveStack)-1]
	s.inactiveStack = s.inactiveStack[:len(s.inactiveStack)-1]
	info := s.sm.CTA(slot)
	first, ok := s.sm.ReserveCTARegs(slot, info.RegCount)
	if !ok {
		// Register space unavailable (should not happen: victim space is
		// reclaimed on demand); give up and leave the CTA inactive.
		s.inactiveStack = append(s.inactiveStack, slot)
		return
	}
	s.slotStates[slot] = slotRestoring
	s.recomputePartitions() // shrink victim space before overwriting
	s.targetActive = s.activeCount() + 1
	s.trans = &transit{slot: slot, firstRN: first, count: info.RegCount, restore: true}
	s.reactivations++
	s.ctaMgrAccesses++
	s.pumpTransfer(s.trans, cycle)
}

// finishRestore resumes the CTA. Its warps may issue again, which the
// SM's issue stage must hear of (the only slot state change that opens
// CTAActive for live warps).
func (s *SMState) finishRestore(t *transit, cycle int64) {
	s.slotStates[t.slot] = slotRunning
	s.ctaMgrAccesses++
	s.sm.GateOpened()
}

// --- verification hooks (consumed by internal/check) ---

// VictimHits returns the victim-cache hits this policy serviced; the
// invariant checker cross-checks it against the engine's OutRegHit count.
func (s *SMState) VictimHits() int64 { return s.regHits }

// RegInflight returns the register backup/restore line requests currently
// in flight below the SM; the invariant checker matches it against the
// RegBackup/RegRestore census of the memory system.
func (s *SMState) RegInflight() int {
	if s.trans == nil {
		return 0
	}
	return s.trans.inflight
}

// CheckInvariants verifies Linebacker-internal conservation laws: victim
// storage never exceeds the registers the register file reports unused,
// usable VTT partitions lie strictly above the largest live register
// number, and backup/restore transfer accounting balances.
func (s *SMState) CheckInvariants() error {
	// During monitoring the VTT tracks tags only (no register storage), so
	// occupancy constraints bind only once victim data actually lives in
	// the register file.
	if s.phase == phaseActive {
		rf := s.sm.RF()
		if cap, unused := s.vtt.CapacityBytes(), rf.StaticallyUnusedBytes(); cap > unused {
			return fmt.Errorf("core: victim capacity %d B exceeds %d B of unused registers", cap, unused)
		}
		if s.vtt.ActiveParts() > 0 {
			if lrn := rf.LargestLiveRN(); s.vtt.FirstUsableFor(lrn) > s.vtt.MaxParts()-s.vtt.ActiveParts() {
				return fmt.Errorf("core: %d VTT partitions usable but live registers reach RN %d", s.vtt.ActiveParts(), lrn)
			}
		}
	}
	if t := s.trans; t != nil {
		switch {
		case t.sent != t.done+t.inflight:
			return fmt.Errorf("core: transfer sent %d != done %d + inflight %d", t.sent, t.done, t.inflight)
		case t.sent > t.count:
			return fmt.Errorf("core: transfer sent %d of %d registers", t.sent, t.count)
		case t.inflight > s.sm.Config().LB.BackupBufEntries:
			return fmt.Errorf("core: %d transfers in flight exceed the %d-entry buffer", t.inflight, s.sm.Config().LB.BackupBufEntries)
		}
	}
	for _, slot := range s.inactiveStack {
		if s.slotStates[slot] != slotInactive {
			return fmt.Errorf("core: slot %d on the inactive stack in state %d", slot, s.slotStates[slot])
		}
		if !s.sm.CTA(slot).Resident {
			return fmt.Errorf("core: inactive slot %d is not resident", slot)
		}
	}
	return nil
}

// --- statistics ---

// ExtraStats implements sim.ExtraStatser.
func (s *SMState) ExtraStats() map[string]float64 {
	avgVictim, avgUnused := 0.0, 0.0
	if s.cycles > 0 {
		avgVictim = s.victimByteCycles / float64(s.cycles)
		avgUnused = s.unusedByteCycles / float64(s.cycles)
	}
	return map[string]float64{
		"lb_unused_bytes_avg": avgUnused,
		"lb_monitor_windows":  float64(s.monitorWindows),
		"lb_selected_loads":   float64(len(s.selected)),
		"lb_disabled":         b2f(s.phase == phaseDisabled),
		"lb_victim_bytes_avg": avgVictim,
		"lb_victim_capacity":  float64(s.vtt.CapacityBytes()),
		"lb_vtt_accesses":     float64(s.vtt.Accesses),
		"lb_vtt_hits":         float64(s.vtt.Hits),
		"lb_vtt_installs":     float64(s.vtt.Installs),
		"lb_vtt_drops":        float64(s.vtt.Drops),
		"lb_vtt_utilization":  s.vtt.Utilization(),
		"lb_lm_accesses":      float64(s.lm.Accesses()),
		"lb_ctamgr_accesses":  float64(s.ctaMgrAccesses),
		"lb_hpc_accesses":     float64(s.hpcAccesses),
		"lb_backup_regs":      float64(s.backupRegs),
		"lb_restore_regs":     float64(s.restoreRegs),
		"lb_throttle_events":  float64(s.throttleEvents),
		"lb_reactivations":    float64(s.reactivations),
		"lb_active_ctas":      float64(s.activeCount()),
		"lb_target_ctas":      float64(s.targetActive),
		"lb_inactive_ctas":    float64(len(s.inactiveStack)),
		"lb_reghit_steps":     float64(s.regHitSteps),
	}
}

func sameSet(a, b map[uint32]bool) bool {
	if len(a) != len(b) {
		return false
	}
	//lbvet:ordered set equality: the conjunction over members is
	// commutative, so the answer cannot depend on visit order.
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

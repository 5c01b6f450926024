package sim

// This file is the event-driven cycle-skipping core (DESIGN.md §10). Every
// engine component advertises the earliest future cycle at which it can
// change simulated state; when the global minimum lies beyond the current
// cycle, RunCtx fast-forwards the clock there instead of ticking through
// provably idle cycles, applying the few cycle-proportional accumulators
// (scheduler idle counts, DRAM busy/bandwidth tokens, policy byte-cycle
// integrals) in closed form. The contract that keeps the skip observably
// invisible:
//
//   - NextEvent(now) returns the earliest cycle >= now at which the
//     component might change state if the engine ticked every cycle;
//     ok == false means it never will (quiescent until some other
//     component's event interacts with it). Returning now blocks skipping.
//   - Advertising too early is always safe (the engine ticks a cycle in
//     which nothing happens); advertising too late is an engine bug — the
//     event-lower-bound property test in event_test.go instruments a
//     CycleChecker to catch it at the source.
//   - Skip/SkipCycles must reproduce the per-cycle accumulators of the
//     skipped span bit-identically to ticking (all of them add
//     integer-valued float64 terms or plain integers, so closed forms are
//     exact; see DESIGN.md §10).

// NextEventer is the optional interface through which engine extensions
// participate in cycle skipping. Fault injectors implement it to advertise
// their armed fault cycles so a skip can never jump over an exact
// (stage, cycle) fault point; an injector that does not implement it
// disables skipping for the run (RunCtx falls back to strict ticking).
type NextEventer interface {
	NextEvent(now int64) (int64, bool)
}

// mergeEvent folds one (cycle, ok) advertisement into a running minimum.
func mergeEvent(best int64, any bool, c int64, ok bool, now int64) (int64, bool) {
	if !ok {
		return best, any
	}
	if c < now {
		c = now
	}
	if !any || c < best {
		return c, true
	}
	return best, any
}

// NextEvent implements the component protocol for one SM: the earliest
// cycle at which the SM front-end, LSU or its policy can change state.
//
//   - A non-empty outbox pins the event to now: it is drained in every
//     Step. A non-empty LSU queue pins the event to now UNLESS its
//     head-of-line request is structurally stalled on a full MSHR: a
//     stalled head blocks the whole queue, and each retried cycle mutates
//     exactly one counter (l1.Stats.MSHRStalls — the structural check in
//     processOp runs before any other side effect), which skipCycles
//     reproduces in closed form. The stall can only resolve through an L1
//     fill, and fills arrive via handleResponse — the response link's
//     event, so a skip can never jump over the resolution cycle.
//   - A warp that is alive, under its MLP limit, scheduler-eligible and
//     ready now pins the event to now; one that becomes ready later
//     contributes its readyAt. Warps blocked on memory (memPending at the
//     MLP limit, or dead with requests in flight) wake through
//     handleResponse, which is the response link's event, not the SM's.
//   - Policy gates (CTAActive/WarpActive) are pure functions of policy
//     state, and policy state only changes in hooks that run during ticked
//     cycles — so a warp gated off now stays gated for the whole skipped
//     span. Future-ready warps are counted without consulting gates: that
//     is conservative (at worst one spurious tick), never unsafe.
func (sm *SM) NextEvent(now int64) (int64, bool) {
	if sm.outbox.Len() > 0 {
		return now, true
	}
	if sm.lsu.Len() > 0 && !sm.lsuHeadStalled() {
		return now, true
	}
	best, any := sm.pol.NextEvent(now)
	if any && best <= now {
		return now, true
	}
	mlp := sm.cfg.GPU.MaxWarpMLP
	for i := range sm.warps {
		w := &sm.warps[i]
		if !w.Alive || w.memPending >= mlp {
			continue
		}
		if w.readyAt > now {
			if !any || w.readyAt < best {
				best, any = w.readyAt, true
			}
			continue
		}
		if sm.pol.CTAActive(w.CTASlot) && sm.pol.WarpActive(i) {
			return now, true
		}
	}
	return best, any
}

// neverWake marks an SM with no self-driven future event: it stays asleep
// until an external input (response delivery, CTA launch) resets nextWake.
const neverWake = int64(1)<<62 - 1

// stepSM advances one SM by one cycle. With per-SM sleeping enabled and
// the SM's cached wake cycle still in the future, the tick is replaced by
// skipCycles over the single-cycle span — O(1), and bit-identical to
// ticking by the invisibility contract above. Otherwise the SM ticks; if
// the tick's activity hint says the front-end did nothing, the SM's next
// event is computed once and cached, so a long stall costs one scan plus
// O(1) per stalled cycle instead of a full front-end pass per cycle.
//
// The hint is only a heuristic for when the scan is worth running — a
// "busy" verdict just means the SM ticks again next cycle, which is always
// safe. Correctness rests solely on NextEvent's contract, and on the wake
// cache being reset at the SM's two external input points (handleResponse,
// launchCTA).
func (g *GPU) stepSM(sm *SM, cyc int64) {
	if !g.smSleep {
		sm.tick(cyc)
		return
	}
	if cyc < sm.nextWake {
		sm.sleepCycle(cyc)
		return
	}
	if sm.tick(cyc) {
		sm.nextWake = cyc + 1
		return
	}
	// In an issue-less tick every scheduler either scanned its warps or
	// answered from its exact wake bound (pickWarp), so sm.scanWake already
	// holds the warps' next ready cycle; fold in the policy's self-event
	// and the outbox and the wake is complete. The LSU contributes nothing
	// of its own: an inactive tick implies it is empty or head-of-line
	// stalled on a full MSHR (runLSU would otherwise have moved and made
	// the tick active), and a stalled head resolves only through
	// handleResponse, which resets nextWake.
	//
	// One staleness hazard: the gate checks embedded in this tick's issue
	// stage ran BEFORE the policy's OnCycle hook, so if the policy had a
	// self-event at this very cycle (a window boundary flipping
	// CTAActive/WarpActive during OnCycle), scanWake may ignore warps the
	// flip just enabled — the SM would oversleep a whole active window
	// (caught by the event-lower-bound differential in event_test.go). In
	// that case redo the full scan against the post-hook policy state.
	// Gate flips in the other hooks cannot be missed: OnLoadOutcome and
	// OnRegResponse only fire on ticks the activity hint reports as busy,
	// and OnCTALaunch / response delivery reset nextWake outright.
	pc, pok := sm.pol.NextEvent(cyc)
	if pok && pc <= cyc {
		if w, ok := sm.NextEvent(cyc + 1); ok {
			sm.nextWake = w
		} else {
			sm.nextWake = neverWake
		}
		sm.sleepStalled = sm.lsu.Len() > 0
		return
	}
	wake := sm.scanWake
	if pok && pc < wake {
		wake = pc
	}
	if sm.outbox.Len() > 0 {
		wake = cyc + 1
	}
	sm.nextWake = wake
	sm.sleepStalled = sm.lsu.Len() > 0
}

// sleepCycle applies one slept cycle's accruals using the verdict cached
// at scan time — the O(1) fast path of skipCycles for the per-SM sleeper.
func (sm *SM) sleepCycle(cyc int64) {
	sm.Stats.IssueIdle += int64(sm.cfg.GPU.NumSchedulers)
	if sm.sleepStalled {
		sm.l1.Stats.MSHRStalls++
	}
	sm.slept++
	sm.pol.SkipCycles(cyc, cyc+1)
}

// lsuHeadStalled reports whether the LSU's head-of-line request is a load
// structurally stalled on a full MSHR — the exact predicate processOp
// checks before doing anything else, evaluated with the same pure reads
// (Address, Probe, HasOutstanding, MSHRFree mutate nothing). While it
// holds, a tick changes nothing but l1.Stats.MSHRStalls, and nothing the
// SM itself does can clear it: runLSU is blocked behind the head, issue()
// only appends to the queue's tail, and policy hooks never touch L1 tag or
// MSHR state outside Attach. Only an L1 fill (handleResponse) resolves it.
func (sm *SM) lsuHeadStalled() bool {
	op := sm.lsu.Front()
	if op.isStore {
		return false
	}
	line := sm.kernel.Address(op.loadIdx, op.ctx, op.req)
	return !sm.l1.Probe(line) && !sm.l1.HasOutstanding(line) && !sm.l1.MSHRFree()
}

// skipCycles applies the SM's cycle-proportional accumulators for the
// skipped span [from, to): every scheduler provably found no eligible warp
// in every skipped cycle (otherwise the SM would have advertised an earlier
// event), so the idle counter advances by span x schedulers — exactly what
// ticking would have accumulated. A head-of-line MSHR stall counts one
// retry per skipped cycle (the predicate is constant across the span: the
// fill that clears it is a response-link event, which bounds the skip).
// The policy applies its own integrals.
func (sm *SM) skipCycles(from, to int64) {
	span := to - from
	sm.slept += span
	sm.Stats.IssueIdle += span * int64(sm.cfg.GPU.NumSchedulers)
	if sm.lsu.Len() > 0 && sm.lsuHeadStalled() {
		sm.l1.Stats.MSHRStalls += span
	}
	sm.pol.SkipCycles(from, to)
}

// nextEventCycle returns the earliest cycle >= now at which any component
// of the machine can change simulated state, assuming the engine ticked
// every cycle from now on. ok == false means no component ever will — the
// machine is wedged (e.g. a chaos-stalled DRAM) and only external
// cancellation can end the run.
//
// Component inventory (every Step stage is accounted for):
//
//	dispatch — pinned to now while undispatched CTAs could find a free,
//	           policy-admitted slot (a failed register allocation mutates
//	           nothing, so the retry spin is conservative but correct);
//	sm       — per-SM front-end/LSU/policy events (see SM.NextEvent);
//	l2       — a non-empty L2 input queue is serviced (or MSHR-retried)
//	           every cycle; the feeding link advertises its head arrival;
//	dram     — next schedule or completion cycle (see dram.NextEvent);
//	response — the return link's head arrival;
//	faults   — the injector's armed fault cycles, so a skip never jumps
//	           an exact (stage, cycle) fault point. RunCtx only enables
//	           skipping when the injector implements NextEventer.
func (g *GPU) nextEventCycle(now int64) (int64, bool) {
	if g.nextCTA < g.kernel.GridCTAs {
		for _, sm := range g.sms {
			if sm.HasFreeSlot() && sm.pol.AllowNewCTA() {
				return now, true
			}
		}
	}
	if g.l2Queue.Len() > 0 {
		return now, true
	}
	best, any := int64(0), false
	for _, sm := range g.sms {
		var c int64
		var ok bool
		if g.smSleep {
			// The per-SM wake cache is authoritative while sleeping is on:
			// stepSM refreshes it every ticked cycle and the external-input
			// points reset it, so reading it here is O(1) and never later
			// than a fresh scan would be.
			c, ok = sm.nextWake, sm.nextWake != neverWake
		} else {
			c, ok = sm.NextEvent(now)
		}
		if ok && c <= now {
			return now, true
		}
		best, any = mergeEvent(best, any, c, ok, now)
	}
	c, ok := g.toL2.NextEvent(now)
	best, any = mergeEvent(best, any, c, ok, now)
	c, ok = g.fromL2.NextEvent(now)
	best, any = mergeEvent(best, any, c, ok, now)
	if g.smSleep {
		// Probes run between Steps, where dramDirty is always false (the
		// dram stage consumes it in the same cycle the l2 stage sets it),
		// so the wake cache is current.
		c, ok = g.dramWake, g.dramWake != neverWake
	} else {
		c, ok = g.dram.NextEvent(now)
	}
	best, any = mergeEvent(best, any, c, ok, now)
	if g.faults != nil {
		// RunCtx guarantees the assertion: skipping is disabled for
		// injectors that do not implement NextEventer.
		ne := g.faults.(NextEventer)
		c, ok = ne.NextEvent(now)
		best, any = mergeEvent(best, any, c, ok, now)
	}
	if any && best <= now {
		return now, true
	}
	return best, any
}

// skipTo fast-forwards the clock from the current cycle to `to` without
// ticking: per-SM and DRAM cycle-proportional state advances in closed
// form, everything else is provably unchanged across the span (that is what
// the event advertisements guarantee). The cycle checker, by design, only
// observes ticked cycles — it validates conservation laws over engine
// state, which a skipped span does not move.
func (g *GPU) skipTo(to int64) {
	from := g.cycle
	for _, sm := range g.sms {
		sm.skipCycles(from, to)
	}
	g.dram.Skip(from, to)
	g.skipped += to - from
	g.cycle = to
}

// SkippedCycles returns how many cycles the run fast-forwarded over instead
// of ticking. Purely diagnostic: it is not part of Result or StateDump
// (those are bit-identical between strict and skipping runs — the whole
// point), but benchmarks report it as the per-bench skip ratio.
func (g *GPU) SkippedCycles() int64 { return g.skipped }

// SleptSMCycles returns the total SM-cycles serviced by the closed-form
// sleep/skip path instead of a full tick, across both mechanisms: per-SM
// sleeping (an SM dozing while the rest of the machine ticks) and global
// fast-forwards. Divided by Cycle() x NumSMs it is the fraction of SM work
// the event engine avoided — the honest skip ratio on machines whose DRAM
// never goes globally idle. Diagnostic only, like SkippedCycles.
func (g *GPU) SleptSMCycles() int64 {
	var n int64
	for _, sm := range g.sms {
		n += sm.slept
	}
	return n
}

package sim

// This file is the engine's one skip mechanism: per-SM and DRAM sleeping
// (DESIGN.md §10). The engine ticks every cycle, but each SM and the DRAM
// advertise the earliest future cycle at which they can change simulated
// state; until then their tick is replaced by the few cycle-proportional
// accumulators it would have applied (scheduler idle counts, head-of-line
// MSHR stalls, DRAM busy/bandwidth tokens, policy byte-cycle integrals),
// in closed form. The contract that keeps sleeping observably invisible:
//
//   - NextEvent(now) returns the earliest cycle >= now at which the
//     component might change state if the engine ticked it every cycle;
//     ok == false means it never will (quiescent until some external
//     input — a response, a CTA launch, a DRAM enqueue — re-arms it).
//     Returning now keeps the component awake.
//   - Advertising too early is always safe (the engine ticks a cycle in
//     which nothing happens); advertising too late is an engine bug — the
//     event-lower-bound property test in event_test.go instruments a
//     CycleChecker to catch it at the source, per component.
//   - sleepCycle, SMPolicy.SkipCycles and dram.Skip must reproduce the
//     per-cycle accumulators of a slept cycle bit-identically to ticking
//     (all of them add integer-valued float64 terms or plain integers, so
//     the closed forms are exact; see DESIGN.md §10).

// NextEvent implements the component protocol for one SM: the earliest
// cycle at which the SM front-end, LSU or its policy can change state.
//
//   - A non-empty outbox pins the event to now: it is drained in every
//     Step. A non-empty LSU queue pins the event to now UNLESS its
//     head-of-line request is structurally stalled on a full MSHR: a
//     stalled head blocks the whole queue, and each retried cycle mutates
//     exactly one counter (l1.Stats.MSHRStalls — the structural check in
//     processOp runs before any other side effect), which sleepCycle
//     reproduces in closed form. The stall can only resolve through an L1
//     fill, and fills arrive via handleResponse — an external input that
//     resets the wake cache, so a sleep can never cover the resolution.
//   - A warp that is alive, under its MLP limit, scheduler-eligible and
//     ready now pins the event to now; one that becomes ready later
//     contributes its readyAt. Warps blocked on memory (memPending at the
//     MLP limit, or dead with requests in flight) wake through
//     handleResponse, which is an external input, not the SM's own event.
//   - Policy gates (CTAActive/WarpActive) are pure functions of policy
//     state, and policy state only changes in hooks that run during ticked
//     cycles — so a warp gated off now stays gated for the whole slept
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

// neverWake marks a sleeper with no self-driven future event: an SM stays
// asleep until a response delivery or CTA launch resets nextWake, the DRAM
// until an enqueue sets dramDirty.
const neverWake = int64(1)<<62 - 1

// stepSM advances one SM by one cycle. With per-SM sleeping enabled and
// the SM's cached wake cycle still in the future, the tick is replaced by
// sleepCycle — O(1), and bit-identical to ticking by the invisibility
// contract above. Otherwise the SM ticks; if the tick's activity hint says
// the front-end did nothing, the SM's next event is computed once and
// cached, so a long stall costs one scan plus O(1) per stalled cycle
// instead of a full front-end pass per cycle.
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

// sleepCycle applies one slept cycle's accruals: every scheduler provably
// finds no eligible warp (otherwise the SM would have advertised an earlier
// wake), a head-of-line MSHR stall retries once (the verdict cached at scan
// time cannot change before a fill, and a fill resets nextWake), and the
// policy applies its own integrals.
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

// SkippedCycles returns 0: the engine ticks every cycle and no longer
// fast-forwards the machine-wide clock (DESIGN.md §10).
//
// Deprecated: per-SM sleeping is the engine's skip measure; use
// SleptSMCycles.
func (g *GPU) SkippedCycles() int64 { return 0 }

// SleptSMCycles returns the total SM-cycles serviced by sleepCycle instead
// of a full tick: an SM dozing through its stall while the rest of the
// machine ticks. Divided by Cycle() x NumSMs it is the fraction of SM work
// sleeping avoided. Diagnostic only: it is not part of Result or StateDump
// (those are bit-identical between strict and sleeping runs).
func (g *GPU) SleptSMCycles() int64 {
	var n int64
	for _, sm := range g.sms {
		n += sm.slept
	}
	return n
}

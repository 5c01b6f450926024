package sim

// This file is the engine's one skip mechanism: per-SM sleeping (DESIGN.md
// §10). The engine ticks every cycle, but each SM advertises the earliest
// future cycle at which it can change simulated state; until then its tick
// is replaced by the few cycle-proportional accumulators it would have
// applied (scheduler idle counts, head-of-line MSHR stalls, policy
// byte-cycle integrals), in closed form. An SM's advertisement is the wake
// stepSM computes after each tick. The dispatcher, the interconnect, the
// L2 and the DRAM never sleep. An SM that ticks keeps a second, finer
// sleeper in its LSU: a sleeping engine parks the LSU on a head-of-line
// MSHR stall (SM.parked) until the next response, so even a tick that must
// run for its schedulers' sake does not re-derive the stall. The contract
// that keeps sleeping observably invisible:
//
//   - An advertisement is the earliest cycle after the tick at which the
//     SM might change state if the engine ticked it every cycle;
//     neverWake means it never will (quiescent until some external input —
//     a response or a CTA launch — re-arms it). A policy's NextEvent(now)
//     answers the same question for the policy alone, with ok == false for
//     never. Advertising the next cycle keeps the SM awake.
//   - Advertising too early is always safe (the engine ticks a cycle in
//     which nothing happens); advertising too late is an engine bug — the
//     event-lower-bound property test in event_test.go instruments a
//     strict run to catch it at the source, per SM, against the very
//     values the sleeping engine reads.
//   - sleepCycle and SMPolicy.SkipCycles must reproduce the per-cycle
//     accumulators of a slept cycle bit-identically to ticking (all of them
//     add integer-valued float64 terms or plain integers, so the closed
//     forms are exact; see DESIGN.md §10).

// neverWake marks an SM with no self-driven future event: it stays asleep
// until a response delivery or CTA launch resets nextWake.
const neverWake = int64(1)<<62 - 1

// stepSM advances one SM by one cycle. With per-SM sleeping enabled and
// the SM's wake still in the future, the tick is replaced by sleepCycle —
// O(1), and bit-identical to ticking by the invisibility contract above.
// Otherwise the SM ticks and stepSM computes its wake, the one place an
// SM's next event is decided. It does so in both run modes, so the strict
// engine's event-lower-bound test checks the value sleeping reads.
//
// A tick that issued or moved an LSU request wakes the SM the next cycle.
// After an issue-less tick the wake is the minimum of:
//
//   - every scheduler's wake bound. A scheduler that issues nothing leaves
//     its bound at the earliest readyAt of its alive, under-MLP warps
//     (pickWarp). A gate opened after the issue stage zeroes every bound
//     (GateOpened), so one opened in this tick's OnCycle wakes the SM the
//     next cycle. Warps blocked on memory wake through handleResponse,
//     which is an external input, not the SM's own event.
//   - the policy's next self-event after this tick (its OnCycle has run).
//   - the next cycle when the outbox holds requests.
//
// The LSU contributes nothing of its own: an issue-less tick that moved
// nothing leaves it empty or stalled at its head on a full MSHR (runLSU
// would otherwise have moved the head). A stalled head blocks the whole
// queue, and each retried cycle mutates exactly one counter
// (l1.Stats.MSHRStalls — the structural check in processOp runs before
// any other side effect). Only an L1 fill can clear the stall, and fills
// arrive through handleResponse, which resets nextWake, so a sleep never
// covers one.
//
// The same argument lets a sleeping engine park the LSU on the stall
// (tick's park argument, SM.parked) while the SM keeps ticking, and after
// an issue-less tick that moved nothing a non-empty LSU is exactly a
// parked one, so sleepCycle reads the same flag. Strict runs never park:
// they re-derive the stall every cycle and stay the per-cycle reference
// the strict-vs-sleeping oracles hold the parked verdict to.
func (g *GPU) stepSM(sm *SM, cyc int64) {
	if g.smSleep && cyc < sm.nextWake {
		sm.sleepCycle(cyc)
		return
	}
	if sm.tick(cyc, g.smSleep) {
		sm.nextWake = cyc + 1
		return
	}
	wake := neverWake
	for _, w := range sm.schedWake {
		wake = min(wake, w)
	}
	if pc, ok := sm.pol.NextEvent(cyc + 1); ok {
		wake = min(wake, pc)
	}
	if sm.outbox.Len() > 0 {
		wake = cyc + 1
	}
	sm.nextWake = wake
}

// sleepCycle applies one slept cycle's accruals: every scheduler provably
// finds no eligible warp (otherwise the SM would have advertised an earlier
// wake), a parked LSU retries its head once (the verdict cannot change
// before a fill, and a fill resets nextWake and the park), and the policy
// applies its own integrals.
func (sm *SM) sleepCycle(cyc int64) {
	sm.Stats.IssueIdle += int64(sm.cfg.GPU.NumSchedulers)
	if sm.parked {
		sm.l1.Stats.MSHRStalls++
	}
	sm.slept++
	sm.pol.SkipCycles(cyc, cyc+1)
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

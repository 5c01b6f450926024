package sim

// This file is the engine's one skip mechanism: per-SM sleeping (DESIGN.md
// §10). The engine ticks every cycle, but each SM advertises the earliest
// future cycle at which its front end can change simulated state; until
// then its tick is replaced by the few cycle-proportional accumulators the
// front end would have applied (scheduler idle counts, head-of-line MSHR
// stalls), followed by the policy's ordinary OnCycle. An SM's
// advertisement is the wake stepSM computes after each tick. The
// dispatcher, the interconnect, the L2 and the DRAM never sleep. An SM
// that ticks keeps a second, finer sleeper in its LSU: a sleeping engine
// parks the LSU on a head-of-line MSHR stall (SM.parked) until the next
// response, so even a tick that must run for its schedulers' sake does not
// re-derive the stall. The contract that keeps sleeping observably
// invisible:
//
//   - An advertisement is the earliest cycle after the tick at which the
//     SM's front end might change state if the engine ticked it every
//     cycle; neverWake means it never will (quiescent until some input —
//     a response, a CTA launch or an opened gate — re-arms it). Advertising
//     the next cycle keeps the SM awake.
//   - Advertising too early is always safe (the engine ticks a cycle in
//     which nothing happens); advertising too late is an engine bug — the
//     event-lower-bound property test in event_test.go instruments a
//     strict run to catch it at the source, per SM, against the very
//     values the sleeping engine reads.
//   - The policy owes the sleeper nothing: its OnCycle runs in every
//     cycle, ticked or slept, so a slept cycle runs the same policy code a
//     strict run does. Its only wake input is SM.GateOpened.

// neverWake marks an SM with no self-driven future event: it stays asleep
// until a response delivery, CTA launch or opened gate resets nextWake.
const neverWake = int64(1)<<62 - 1

// stepSM advances one SM by one cycle. With per-SM sleeping enabled and
// the SM's wake still in the future, the front end's tick is replaced by
// sleepCycle — O(1), and bit-identical to ticking by the invisibility
// contract above. Otherwise the SM ticks and stepSM computes its wake, the
// one place an SM's next event is decided. It does so in both run modes,
// so the strict engine's event-lower-bound test checks the value sleeping
// reads. Either way the policy's OnCycle runs last.
//
// A tick that issued or moved an LSU request wakes the SM the next cycle.
// After an issue-less tick the wake is the least of the schedulers' wake
// bounds. A scheduler that issues nothing leaves its bound at the earliest
// readyAt of its alive, under-MLP warps (pickWarp). A gate opened after
// the issue stage zeroes every bound and the wake (GateOpened), so one
// opened in OnCycle, ticked or slept, wakes the SM the next cycle. Warps
// blocked on memory wake through handleResponse, which is an external
// input, not the SM's own event. Requests in the outbox need no wake:
// Step drains every outbox, whether its SM slept or not.
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
	switch {
	case g.smSleep && cyc < sm.nextWake:
		sm.sleepCycle()
	case sm.tick(cyc, g.smSleep):
		sm.nextWake = cyc + 1
	default:
		wake := neverWake
		for _, w := range sm.schedWake {
			wake = min(wake, w)
		}
		sm.nextWake = wake
	}
	sm.pol.OnCycle(cyc)
}

// sleepCycle applies one slept cycle's front-end accruals: every scheduler
// provably finds no eligible warp (otherwise the SM would have advertised
// an earlier wake), and a parked LSU retries its head once (the verdict
// cannot change before a fill, and a fill resets nextWake and the park).
func (sm *SM) sleepCycle() {
	sm.Stats.IssueIdle += int64(sm.cfg.GPU.NumSchedulers)
	if sm.parked {
		sm.l1.Stats.MSHRStalls++
	}
	sm.slept++
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

package check

import (
	"fmt"

	"github.com/linebacker-sim/linebacker/internal/memtypes"
	"github.com/linebacker-sim/linebacker/internal/sim"
)

// EngineRules returns the default conservation laws. Every rule must hold
// for every policy at every cycle boundary; policy-specific rules activate
// through the optional interfaces (VictimHitser, RegInflighter,
// SelfChecker) and are skipped where a policy does not implement them.
func EngineRules() []Rule {
	return []Rule{
		{Name: "load-accounting", Check: checkLoadAccounting},
		{Name: "victim-accounting", Check: checkVictimAccounting},
		{Name: "scoreboard", Check: checkScoreboard},
		{Name: "mshr", Check: checkMSHR},
		{Name: "inflight-conservation", Check: checkInflight},
		{Name: "l2-mshr", Check: checkL2MSHR},
		{Name: "policy-invariants", Check: checkPolicies},
		{Name: "issue-bound", Check: checkIssueBound},
		{Name: "lsu-park", Check: checkLSUPark},
	}
}

// checkLoadAccounting verifies the Figure 13 identity per SM: the engine's
// per-outcome load tally and the L1's own counters classify every lookup
// exactly once, so the two independent tallies must agree term by term.
func checkLoadAccounting(g *sim.GPU) error {
	for _, sm := range g.SMs() {
		st := &sm.Stats
		l1 := &sm.L1().Stats
		switch {
		case st.LoadReqs[sim.OutHit] != l1.LoadHits:
			return fmt.Errorf("SM%d: %d hit outcomes vs %d L1 load hits", sm.ID(), st.LoadReqs[sim.OutHit], l1.LoadHits)
		case st.LoadReqs[sim.OutPendingHit] != l1.LoadPendingHits:
			return fmt.Errorf("SM%d: %d pending-hit outcomes vs %d L1 pending hits", sm.ID(), st.LoadReqs[sim.OutPendingHit], l1.LoadPendingHits)
		case st.LoadReqs[sim.OutMiss]+st.LoadReqs[sim.OutBypass] != l1.LoadMisses:
			return fmt.Errorf("SM%d: %d miss + %d bypass outcomes vs %d L1 misses",
				sm.ID(), st.LoadReqs[sim.OutMiss], st.LoadReqs[sim.OutBypass], l1.LoadMisses)
		case l1.ColdMisses+l1.CapConfMisses != l1.LoadMisses:
			return fmt.Errorf("SM%d: miss split %d cold + %d cap/conf vs %d misses",
				sm.ID(), l1.ColdMisses, l1.CapConfMisses, l1.LoadMisses)
		case st.StoreReqs != l1.StoreHits+l1.StoreMisses:
			return fmt.Errorf("SM%d: %d store ops vs %d L1 store accesses", sm.ID(), st.StoreReqs, l1.StoreHits+l1.StoreMisses)
		}
	}
	return nil
}

// checkVictimAccounting cross-checks the engine's reg-hit outcome count
// against the policy's own victim-hit tally, where the policy exposes one.
func checkVictimAccounting(g *sim.GPU) error {
	for i, pol := range g.SMPolicies() {
		vh, ok := pol.(VictimHitser)
		if !ok {
			continue
		}
		sm := g.SMs()[i]
		if got, want := sm.Stats.LoadReqs[sim.OutRegHit], vh.VictimHits(); got != want {
			return fmt.Errorf("SM%d: engine counted %d reg hits, policy serviced %d", sm.ID(), got, want)
		}
	}
	return nil
}

// checkScoreboard verifies per-warp outstanding-request conservation: the
// scoreboard view (sum of warp memPending) must equal the line requests
// still queued in the LSU plus those registered as fill waiters.
func checkScoreboard(g *sim.GPU) error {
	for _, sm := range g.SMs() {
		pending := sm.SumMemPending()
		queued := sm.PendingLoadOps()
		waiting := sm.WaiterEntries()
		if pending != queued+waiting {
			return fmt.Errorf("SM%d: scoreboard holds %d outstanding loads, LSU+waiters hold %d+%d",
				sm.ID(), pending, queued, waiting)
		}
	}
	return nil
}

// checkMSHR verifies that L1 MSHR entries and fill-waiter lines pair up
// one-to-one: an entry without waiters is a leak (it would never be freed
// meaningfully), a waited line without an entry would never be woken.
func checkMSHR(g *sim.GPU) error {
	for _, sm := range g.SMs() {
		if fills, lines := sm.L1().OutstandingFills(), sm.WaiterLines(); fills != lines {
			return fmt.Errorf("SM%d: %d L1 MSHR entries vs %d waited lines", sm.ID(), fills, lines)
		}
		var err error
		sm.ForEachWaitedLine(func(line memtypes.LineAddr, _ int) {
			if err == nil && sm.L1().MSHRSlot(line) < 0 {
				err = fmt.Errorf("SM%d: waiters on line %#x with no outstanding fill", sm.ID(), uint64(line))
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// checkInflight takes a census of every request object travelling below
// the SMs and balances it against what each SM expects back: issued minus
// completed loads equal the distinct waited lines, and register
// backup/restore traffic equals the policies' reported in-flight counts.
// Stores are fire-and-forget and carry no return obligation.
func checkInflight(g *sim.GPU) error {
	n := len(g.SMs())
	loads := make([]int, n)
	regs := make([]int, n)
	g.ForEachInflight(func(req *memtypes.Request) {
		if req.SM < 0 || req.SM >= n {
			return
		}
		switch req.Kind {
		case memtypes.Load:
			loads[req.SM]++
		case memtypes.RegBackup, memtypes.RegRestore:
			regs[req.SM]++
		}
	})
	for i, sm := range g.SMs() {
		if want := sm.WaiterLines(); loads[i] != want {
			return fmt.Errorf("SM%d: %d loads in flight, %d lines awaited", sm.ID(), loads[i], want)
		}
		if ri, ok := g.SMPolicies()[i].(RegInflighter); ok {
			if want := ri.RegInflight(); regs[i] != want {
				return fmt.Errorf("SM%d: %d reg transfers in flight, policy expects %d", sm.ID(), regs[i], want)
			}
		}
	}
	return nil
}

// checkL2MSHR verifies the L2 leg of request conservation: every L2 MSHR
// entry corresponds to exactly one distinct load line in the DRAM queues or
// service stations, and vice versa. Every request merged into an L2 fill
// must wait in the list of the live MSHR slot that tracks its line; a list
// a freed slot kept would hand served requests to the slot's next fill.
func checkL2MSHR(g *sim.GPU) error {
	lines := map[memtypes.LineAddr]struct{}{}
	g.DRAM().ForEach(func(req *memtypes.Request) {
		if req.Kind == memtypes.Load {
			lines[req.Line] = struct{}{}
		}
	})
	if fills := g.L2().OutstandingFills(); fills != len(lines) {
		return fmt.Errorf("%d L2 MSHR entries vs %d distinct load lines in DRAM", fills, len(lines))
	}
	var err error
	g.ForEachL2Waiter(func(slot int, req *memtypes.Request) {
		if err != nil {
			return
		}
		switch live := g.L2().MSHRSlot(req.Line); {
		case live < 0:
			err = fmt.Errorf("L2 MSHR slot %d holds a waiter on line %#x, which has no outstanding fill", slot, uint64(req.Line))
		case live != slot:
			err = fmt.Errorf("L2 MSHR slot %d holds a waiter on line %#x, whose fill is in slot %d", slot, uint64(req.Line), live)
		}
	})
	return err
}

// checkPolicies runs policy self-checks where implemented.
func checkPolicies(g *sim.GPU) error {
	for i, pol := range g.SMPolicies() {
		sc, ok := pol.(SelfChecker)
		if !ok {
			continue
		}
		if err := sc.CheckInvariants(); err != nil {
			return fmt.Errorf("SM%d: %w", g.SMs()[i].ID(), err)
		}
	}
	return nil
}

// checkIssueBound verifies every scheduler's wake bound against the warps
// its policy admits (sim.SM.CheckIssueBound): a policy that opens a gate
// without calling SM.GateOpened leaves a bound past a ready warp, and the
// SM would stop issuing from it until the bound passes.
func checkIssueBound(g *sim.GPU) error {
	for _, sm := range g.SMs() {
		if err := sm.CheckIssueBound(g.Cycle() + 1); err != nil {
			return err
		}
	}
	return nil
}

// checkLSUPark verifies every parked LSU's stall verdict
// (sim.SM.CheckLSUPark): a park that a fill failed to clear, or that was
// set without a head-of-line MSHR stall, would freeze a queue the strict
// engine keeps draining.
func checkLSUPark(g *sim.GPU) error {
	for _, sm := range g.SMs() {
		if err := sm.CheckLSUPark(); err != nil {
			return err
		}
	}
	return nil
}

package sim

import (
	"fmt"
	"strings"

	"github.com/linebacker-sim/linebacker/internal/memtypes"
	"github.com/linebacker-sim/linebacker/internal/stats"
)

// This file exposes read-only views of the engine's in-flight state for the
// runtime invariant checker (internal/check). None of these methods mutate
// the simulation; all of them reflect the state between two Step calls.

// ForEachInflight visits every request object currently travelling below
// the SMs: per-SM outboxes, the SM→L2 link, the L2 input queue, requests
// parked on L2 MSHRs, the DRAM queues and service stations, and the L2→SM
// response link. Each live request is visited exactly once.
func (g *GPU) ForEachInflight(fn func(*memtypes.Request)) {
	for _, sm := range g.sms {
		for i := 0; i < sm.outbox.Len(); i++ {
			fn(sm.outbox.At(i))
		}
	}
	g.toL2.ForEach(fn)
	for i := 0; i < g.l2Queue.Len(); i++ {
		fn(g.l2Queue.At(i))
	}
	// Sorted keys: the visit order of merged waiters must not depend on
	// map order — fn may fold the requests into anything, including
	// order-sensitive aggregates.
	for _, line := range stats.SortedKeys(g.l2Waiters) {
		for _, req := range g.l2Waiters[line] {
			fn(req)
		}
	}
	g.dram.ForEach(fn)
	g.fromL2.ForEach(fn)
}

// L2WaiterLines returns the number of distinct lines with requests merged
// into an outstanding L2 fill.
func (g *GPU) L2WaiterLines() int { return len(g.l2Waiters) }

// PendingLoadOps returns the load line-requests waiting in the SM's LSU
// queue (issued by a warp, not yet presented to the L1).
func (sm *SM) PendingLoadOps() int {
	n := 0
	for i := 0; i < sm.lsu.Len(); i++ {
		if !sm.lsu.At(i).isStore {
			n++
		}
	}
	return n
}

// WaiterLines returns the number of distinct lines with warps waiting on an
// outstanding L1 fill — by construction equal to the L1's live MSHR count.
func (sm *SM) WaiterLines() int { return len(sm.waiters) }

// WaiterEntries returns the total warp↦line wait registrations: one per
// outstanding line request that has gone below the L1.
func (sm *SM) WaiterEntries() int {
	n := 0
	for _, ws := range sm.waiters {
		n += len(ws)
	}
	return n
}

// ForEachWaitedLine visits every line some warp of this SM waits on, in
// ascending line order so the visit sequence is deterministic.
func (sm *SM) ForEachWaitedLine(fn func(line memtypes.LineAddr, waiters int)) {
	for _, line := range stats.SortedKeys(sm.waiters) {
		fn(line, len(sm.waiters[line]))
	}
}

// SumMemPending returns the outstanding line requests summed over the SM's
// warp contexts (the per-warp scoreboard view of the same in-flight work
// the LSU and waiter structures track).
func (sm *SM) SumMemPending() int {
	n := 0
	for i := range sm.warps {
		n += sm.warps[i].memPending
	}
	return n
}

// StateDump renders a deterministic one-look diagnostic snapshot of the
// machine's in-flight state: where every queue stands and what each SM has
// committed. Harness RunErrors attach it so a watchdog abort or recovered
// panic reports *where* the machine wedged, not just that it did. The dump
// only reads engine state; it is safe between Steps and after a recovered
// panic.
func (g *GPU) StateDump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycle=%d ctas=%d/%d committed=%d\n",
		g.cycle, g.nextCTA, g.kernel.GridCTAs, g.committed())
	fmt.Fprintf(&b, "icnt: toL2=%d fromL2=%d | l2: queue=%d waiterLines=%d | dram: queue=%d inflight=%d stalled=%v\n",
		g.toL2.Pending(), g.fromL2.Pending(), g.l2Queue.Len(), len(g.l2Waiters),
		g.dram.QueueLen(), g.dram.Inflight(), g.dram.Stalled())
	for _, sm := range g.sms {
		fmt.Fprintf(&b, "SM%d: retired=%d resident=%d outbox=%d lsu=%d waitLines=%d waitEntries=%d memPending=%d\n",
			sm.id, sm.Stats.Retired, sm.ResidentCTAs(), sm.outbox.Len(), sm.lsu.Len(),
			sm.WaiterLines(), sm.WaiterEntries(), sm.SumMemPending())
	}
	return b.String()
}

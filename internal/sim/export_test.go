package sim

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/linebacker-sim/linebacker/internal/config"
	"github.com/linebacker-sim/linebacker/internal/memtypes"
)

// This file holds the issue stage's full-scan oracle and the gate-pulsing
// and gate-flipping test policies, and exports them with the package's
// other test policies to pickwarp_test.go. That test lives in package
// sim_test because it also drives the production gating schemes
// (internal/schemes, internal/core), which import this package.

// refPickWarp is the stateless full scan that pickWarp's age lists and wake
// bound replaced: greedy first, then the oldest ready, gate-admitted warp
// of the whole strided partition, and the earliest future readyAt. It is
// the oracle pickWarp must match pick for pick and, when nothing is
// picked, the future the scheduler's wake bound must be left at.
func refPickWarp(sm *SM, sched int, cycle int64) (int, int64) {
	ns := sm.cfg.GPU.NumSchedulers
	mlp := sm.cfg.GPU.MaxWarpMLP
	if last := sm.lastIssued[sched]; last >= 0 {
		w := &sm.warps[last]
		if w.ready(cycle, mlp) && sm.pol.CTAActive(w.CTASlot) && sm.pol.WarpActive(last) {
			return last, 0
		}
	}
	best := -1
	future := neverWake
	for i := sched; i < len(sm.warps); i += ns {
		w := &sm.warps[i]
		if !w.Alive || w.memPending >= mlp {
			continue
		}
		if w.readyAt > cycle {
			if w.readyAt < future {
				future = w.readyAt
			}
			continue
		}
		if !sm.pol.CTAActive(w.CTASlot) || !sm.pol.WarpActive(i) {
			continue
		}
		if best < 0 {
			best = i
			continue
		}
		b := &sm.warps[best]
		if w.Seq < b.Seq || (w.Seq == b.Seq && w.Idx < b.Idx) {
			best = i
		}
	}
	return best, future
}

// pulsePolicy gates every CTA off during alternating windows of `period`
// cycles and declares only OnCycle: it flips its gates at period
// boundaries and calls GateOpened when they open, so during an "off" phase
// the schedulers answer from their wake bounds past gated ready warps.
type pulsePolicy struct {
	period int64
}

func (p pulsePolicy) Name() string { return "pulse" }
func (p pulsePolicy) Attach(sm *SM) SMPolicy {
	return &pulseState{sm: sm, period: p.period}
}

type pulseState struct {
	BasePolicy
	sm     *SM
	period int64
	on     bool
}

func (s *pulseState) CTAActive(int) bool { return s.on }
func (s *pulseState) OnCycle(cycle int64) {
	was := s.on
	s.on = (cycle/s.period)%2 == 0
	if s.on && !was {
		s.sm.GateOpened()
	}
}

// flipPolicy flips issue gates from a seeded generator: every load outcome
// toggles one warp's gate, and every period cycles OnCycle redraws every
// CTA and warp gate, each open with probability 3/4. Its gates open in both
// kinds of hook the issue stage cannot see coming, each of which calls
// GateOpened.
type flipPolicy struct {
	seed   uint64
	period int64
}

func (p flipPolicy) Name() string { return fmt.Sprintf("flip-%d", p.seed) }
func (p flipPolicy) Attach(sm *SM) SMPolicy {
	s := &flipState{
		sm:     sm,
		period: p.period,
		rng:    p.seed*0x9E3779B97F4A7C15 + uint64(sm.ID()) + 1,
		cta:    make([]bool, sm.MaxResident()),
		warp:   make([]bool, sm.MaxResident()*sm.Kernel().WarpsPerCTA),
	}
	s.OnCycle(0)
	return s
}

type flipState struct {
	BasePolicy
	sm        *SM
	period    int64
	rng       uint64
	cta, warp []bool
}

// next steps a xorshift64 generator.
func (s *flipState) next() uint64 {
	s.rng ^= s.rng << 13
	s.rng ^= s.rng >> 7
	s.rng ^= s.rng << 17
	return s.rng
}

func (s *flipState) CTAActive(slot int) bool      { return s.cta[slot] }
func (s *flipState) WarpActive(warpSlot int) bool { return s.warp[warpSlot] }
func (s *flipState) OnLoadOutcome(int, uint32, memtypes.LineAddr, Outcome, int64) {
	w := s.next() % uint64(len(s.warp))
	s.warp[w] = !s.warp[w]
	if s.warp[w] {
		s.sm.GateOpened()
	}
}
func (s *flipState) OnCycle(cycle int64) {
	if cycle%s.period != 0 {
		return
	}
	for i := range s.cta {
		s.cta[i] = s.next()%4 != 0
	}
	for i := range s.warp {
		s.warp[i] = s.next()%4 != 0
	}
	s.sm.GateOpened()
}

// PickWarpTally counts the situations that make a pickWarp comparison
// non-vacuous.
type PickWarpTally struct {
	Fast      int // calls answered from the wake bound
	GatedFast int // of those, calls made while a ready warp was gated off
	Gated     int // failed calls with a ready warp gated off
	Inverted  int // cycles where an older CTA sat in a higher slot than a younger one
}

// CheckPickWarp compares pickWarp with refPickWarp on every scheduler of
// the SM at the given cycle: the pick, and after a failed call the wake
// bound, which answers the scheduler's next calls below it. It also
// checks every age list against the full scan's candidates: the
// alive warps under the MLP limit, by (seq, idx). The wake bound is
// restored after each probe, so the probe leaves the run exactly as it
// found it (gate calls are pure reads).
func CheckPickWarp(sm *SM, cycle int64, tally *PickWarpTally) error {
	ns := sm.cfg.GPU.NumSchedulers
	mlp := sm.cfg.GPU.MaxWarpMLP
	for s := 0; s < ns; s++ {
		var listed []int
		for i := s; i < len(sm.warps); i += ns {
			if w := &sm.warps[i]; w.Alive && w.memPending < mlp {
				listed = append(listed, i)
			}
		}
		slices.SortFunc(listed, func(a, b int) int {
			wa, wb := &sm.warps[a], &sm.warps[b]
			if c := cmp.Compare(wa.Seq, wb.Seq); c != 0 {
				return c
			}
			return cmp.Compare(wa.Idx, wb.Idx)
		})
		if !slices.Equal(sm.order[s], listed) {
			return fmt.Errorf("SM%d sched %d cycle %d: age list %v, want alive warps under the MLP limit by (seq, idx) %v",
				sm.id, s, cycle, sm.order[s], listed)
		}

		wake := sm.schedWake[s]
		fast := cycle < wake
		if fast {
			tally.Fast++
		}
		want, wantFuture := refPickWarp(sm, s, cycle)
		got := sm.pickWarp(s, cycle)
		gotFuture := sm.schedWake[s]
		sm.schedWake[s] = wake
		if got != want {
			return fmt.Errorf("SM%d sched %d cycle %d: picked warp %d, full scan picks %d (wake bound %d)",
				sm.id, s, cycle, got, want, wake)
		}
		if got >= 0 {
			continue
		}
		if gotFuture != wantFuture {
			return fmt.Errorf("SM%d sched %d cycle %d: no pick left the wake bound at %d, full scan's future is %d (bound before the call %d)",
				sm.id, s, cycle, gotFuture, wantFuture, wake)
		}
		for i := s; i < len(sm.warps); i += ns {
			if w := &sm.warps[i]; w.ready(cycle, mlp) {
				tally.Gated++
				if fast {
					tally.GatedFast++
				}
				break
			}
		}
	}
	for a := range sm.ctas {
		for b := a + 1; b < len(sm.ctas); b++ {
			if sm.ctas[a].Resident && sm.ctas[b].Resident && sm.ctas[a].Seq > sm.ctas[b].Seq {
				tally.Inverted++
				return nil
			}
		}
	}
	return nil
}

// Parked reports whether the SM's LSU is parked on a head-of-line stall.
func (sm *SM) Parked() bool { return sm.parked }

// ForcePark parks the SM's LSU whatever its head: the false verdict the
// lsu-park checker rule must catch.
func (sm *SM) ForcePark() { sm.parked = true }

// Done reports grid completion.
func (g *GPU) Done() bool { return g.done() }

// SmallConfig is the package tests' two-SM configuration.
func SmallConfig() config.Config { return testConfig() }

// GateTestPolicies returns the package's test policies: no gates, static
// gates, gates pulsed at OnCycle boundaries, and gates flipped at OnCycle
// boundaries and in OnLoadOutcome.
func GateTestPolicies() []Policy {
	return []Policy{
		Baseline{},
		throttleScheme{},
		pulsePolicy{period: 700},
		flipPolicy{seed: 1, period: 500},
		flipPolicy{seed: 2, period: 900},
	}
}

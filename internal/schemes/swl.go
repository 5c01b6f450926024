// Package schemes implements the comparison points of the paper's
// evaluation: static warp limiting (SWL / Best-SWL), PCAL (priority-based
// cache allocation, HPCA '15), CERF (cache-emulated register file,
// MICRO '16), the CacheExt idealisation of Section 2.4, and a policy
// combinator for the Figure 15 combinations.
package schemes

import (
	"fmt"

	"github.com/linebacker-sim/linebacker/internal/config"
	"github.com/linebacker-sim/linebacker/internal/sim"
	"github.com/linebacker-sim/linebacker/internal/workload"
)

// SWL is static warp (CTA) limiting: only Limit CTAs per SM may issue;
// the rest stay resident — their registers become dynamically unused (DUR).
// Best-SWL is the oracle that picks the Limit with the highest IPC.
type SWL struct {
	// Limit is the number of CTAs allowed to run concurrently per SM.
	Limit int
}

// Name implements sim.Policy.
func (s SWL) Name() string { return fmt.Sprintf("SWL-%d", s.Limit) }

// Attach implements sim.Policy.
func (s SWL) Attach(sm *sim.SM) sim.SMPolicy {
	st := &swlState{sm: sm, limit: s.Limit, active: make([]bool, sm.MaxResident())}
	st.rebuild()
	return st
}

type swlState struct {
	sim.BasePolicy
	sm    *sim.SM
	limit int

	// active caches each slot's issue permission. CTA residency only moves
	// in the launch/complete hooks, which rebuild the cache, so the O(slots²)
	// rank computation runs per residency change instead of per scheduler
	// query — CTAActive sits on the warp scheduler's innermost loop.
	active []bool

	durByteCycles float64
	cycles        int64
}

// rebuild recomputes every slot's permission: the `limit` oldest resident
// CTAs (ranked by launch sequence) may run; empty slots stay permissive so
// a freshly launched CTA is judged by its own rank. Admitting a throttled
// resident CTA opens a gate the SM's issue stage must hear of; an empty
// slot has no live warps to admit.
func (s *swlState) rebuild() {
	opened := false
	for slot := range s.active {
		info := s.sm.CTA(slot)
		if !info.Resident {
			s.active[slot] = true
			continue
		}
		rank := 0
		for i := 0; i < s.sm.MaxResident(); i++ {
			o := s.sm.CTA(i)
			if i != slot && o.Resident && (o.Seq < info.Seq) {
				rank++
			}
		}
		opened = opened || (!s.active[slot] && rank < s.limit)
		s.active[slot] = rank < s.limit
	}
	if opened {
		s.sm.GateOpened()
	}
}

// CTAActive allows the `limit` oldest resident CTAs to run.
func (s *swlState) CTAActive(slot int) bool { return s.active[slot] }

// OnCTALaunch implements sim.SMPolicy: residency changed, recompute ranks.
func (s *swlState) OnCTALaunch(int, int, int64) { s.rebuild() }

// OnCTAComplete implements sim.SMPolicy: a completed CTA frees a rank, which
// may admit the next-oldest throttled CTA.
func (s *swlState) OnCTAComplete(int, int64) { s.rebuild() }

// OnCycle integrates the dynamically-unused register bytes (Figure 4).
func (s *swlState) OnCycle(cycle int64) {
	s.cycles++
	resident := s.sm.ResidentCTAs()
	throttled := resident - s.limit
	if throttled < 0 {
		throttled = 0
	}
	s.durByteCycles += float64(throttled * s.sm.Kernel().RegsPerCTA() * config.LineSize)
}

// ExtraStats implements sim.ExtraStatser.
func (s *swlState) ExtraStats() map[string]float64 {
	dur := 0.0
	if s.cycles > 0 {
		dur = s.durByteCycles / float64(s.cycles)
	}
	return map[string]float64{
		"swl_limit":         float64(s.limit),
		"swl_dur_bytes_avg": dur,
	}
}

// SURBytes returns the statically unused register file bytes for a kernel
// at full residency (Figure 4's SUR).
func SURBytes(g *config.GPU, k *workload.Kernel) int {
	resident := sim.MaxResidentCTAs(g, k)
	used := resident * k.RegsPerCTA() * config.LineSize
	return g.RegFileBytes - used
}

// DURBytes returns the dynamically unused register bytes when only `limit`
// of the resident CTAs run (Figure 4's DUR under Best-SWL).
func DURBytes(g *config.GPU, k *workload.Kernel, limit int) int {
	resident := sim.MaxResidentCTAs(g, k)
	if limit >= resident {
		return 0
	}
	return (resident - limit) * k.RegsPerCTA() * config.LineSize
}

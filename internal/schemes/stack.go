package schemes

import (
	"strings"

	"github.com/linebacker-sim/linebacker/internal/cache"
	"github.com/linebacker-sim/linebacker/internal/memtypes"
	"github.com/linebacker-sim/linebacker/internal/sim"
	"github.com/linebacker-sim/linebacker/internal/stats"
)

// Stack composes policies (for the Figure 15 combinations: PCAL+CERF,
// PCAL+SVC, Baseline+SVC, LB+CacheExt, Best-SWL+CacheExt).
//
// Hook semantics: permission hooks (CTAActive, AllowNewCTA, AllocateL1)
// AND together; ExtraL1Latency sums; ProbeVictim takes the first hit;
// notification hooks fan out to every member. Attach runs in order, so put
// policies that reshape the SM (CacheExt, CERF) first.
type Stack struct {
	Label    string
	Policies []sim.Policy
}

// Combine builds a Stack with a derived name.
func Combine(label string, ps ...sim.Policy) Stack {
	return Stack{Label: label, Policies: ps}
}

// Name implements sim.Policy.
func (s Stack) Name() string {
	if s.Label != "" {
		return s.Label
	}
	names := make([]string, len(s.Policies))
	for i, p := range s.Policies {
		names[i] = p.Name()
	}
	return strings.Join(names, "+")
}

// Attach implements sim.Policy.
func (s Stack) Attach(sm *sim.SM) sim.SMPolicy {
	st := &stackState{}
	for _, p := range s.Policies {
		st.ps = append(st.ps, p.Attach(sm))
	}
	return st
}

type stackState struct {
	sim.BasePolicy
	ps []sim.SMPolicy
}

func (s *stackState) CTAActive(slot int) bool {
	for _, p := range s.ps {
		if !p.CTAActive(slot) {
			return false
		}
	}
	return true
}

func (s *stackState) WarpActive(warpSlot int) bool {
	for _, p := range s.ps {
		if !p.WarpActive(warpSlot) {
			return false
		}
	}
	return true
}

func (s *stackState) AllowNewCTA() bool {
	for _, p := range s.ps {
		if !p.AllowNewCTA() {
			return false
		}
	}
	return true
}

func (s *stackState) AllocateL1(warpSlot int, pc uint32) bool {
	for _, p := range s.ps {
		if !p.AllocateL1(warpSlot, pc) {
			return false
		}
	}
	return true
}

func (s *stackState) ExtraL1Latency(line memtypes.LineAddr, cycle int64) int {
	n := 0
	for _, p := range s.ps {
		n += p.ExtraL1Latency(line, cycle)
	}
	return n
}

func (s *stackState) ProbeVictim(line memtypes.LineAddr, pc uint32, cycle int64) (bool, int) {
	missLat := 0
	for _, p := range s.ps {
		hit, lat := p.ProbeVictim(line, pc, cycle)
		if hit {
			return true, lat
		}
		// Serial searches that missed still cost their latency.
		missLat += lat
	}
	return false, missLat
}

func (s *stackState) OnEviction(ev cache.Eviction, cycle int64) {
	for _, p := range s.ps {
		p.OnEviction(ev, cycle)
	}
}

func (s *stackState) OnLoadOutcome(warpSlot int, pc uint32, line memtypes.LineAddr, out sim.Outcome, cycle int64) {
	for _, p := range s.ps {
		p.OnLoadOutcome(warpSlot, pc, line, out, cycle)
	}
}

func (s *stackState) OnStore(line memtypes.LineAddr, cycle int64) {
	for _, p := range s.ps {
		p.OnStore(line, cycle)
	}
}

func (s *stackState) OnCTALaunch(slot, seq int, cycle int64) {
	for _, p := range s.ps {
		p.OnCTALaunch(slot, seq, cycle)
	}
}

func (s *stackState) OnCTAComplete(slot int, cycle int64) {
	for _, p := range s.ps {
		p.OnCTAComplete(slot, cycle)
	}
}

func (s *stackState) OnRegResponse(req *memtypes.Request, cycle int64) {
	for _, p := range s.ps {
		p.OnRegResponse(req, cycle)
	}
}

func (s *stackState) OnCycle(cycle int64) {
	for _, p := range s.ps {
		p.OnCycle(cycle)
	}
}

// ExtraStats implements sim.ExtraStatser, merging member stats.
func (s *stackState) ExtraStats() map[string]float64 {
	out := map[string]float64{}
	for _, p := range s.ps {
		if es, ok := p.(sim.ExtraStatser); ok {
			// Sorted keys: members may export overlapping keys, and the
			// float merge must happen in one fixed order across runs.
			ex := es.ExtraStats()
			for _, k := range stats.SortedKeys(ex) {
				out[k] += ex[k]
			}
		}
	}
	return out
}

package schemes

import (
	"sort"

	"github.com/linebacker-sim/linebacker/internal/memtypes"
	"github.com/linebacker-sim/linebacker/internal/sim"
)

// CCWS is Cache-Conscious Wavefront Scheduling (Rogers, O'Connor, Aamodt,
// MICRO 2012) — the dynamic warp-throttling technique the paper's Best-SWL
// oracle is defined against. It is included as a reproduction extension so
// Best-SWL's "better than CCWS" framing can be checked.
//
// Mechanism (the paper's locality scoring system, modelled at the same
// granularity as the other schemes here):
//
//   - every warp owns a small victim tag array (VTA) of the lines it
//     recently missed on;
//   - a warp re-missing on a line still in its VTA has *lost intra-warp
//     locality*: its locality score jumps;
//   - scores decay linearly every cycle;
//   - warps are ranked by score; when the aggregate score grows, the
//     lowest-scoring warps are descheduled so high-score warps can
//     re-establish their working sets.
type CCWS struct {
	// VTAEntries is the per-warp victim tag array size (default 16).
	VTAEntries int
	// ScoreHit is the score added on a lost-locality detection
	// (default 64 — roughly the paper's KTHROTTLE-scaled bump).
	ScoreHit float64
	// DecayPerCycle is the linear per-cycle score decay (default 0.02).
	DecayPerCycle float64
	// ScorePerDescheduledWarp converts aggregate score into the number of
	// descheduled warps (default 256).
	ScorePerDescheduledWarp float64
}

// Name implements sim.Policy.
func (CCWS) Name() string { return "CCWS" }

// withDefaults fills zero fields.
func (c CCWS) withDefaults() CCWS {
	if c.VTAEntries == 0 {
		c.VTAEntries = 16
	}
	if c.ScoreHit == 0 {
		c.ScoreHit = 64
	}
	if c.DecayPerCycle == 0 {
		c.DecayPerCycle = 0.02
	}
	if c.ScorePerDescheduledWarp == 0 {
		c.ScorePerDescheduledWarp = 256
	}
	return c
}

// Attach implements sim.Policy.
func (c CCWS) Attach(sm *sim.SM) sim.SMPolicy {
	c = c.withDefaults()
	n := sm.MaxResident() * sm.Kernel().WarpsPerCTA
	st := &ccwsState{
		cfg:    c,
		sm:     sm,
		warps:  make([]ccwsWarp, n),
		active: make([]bool, n),
	}
	for i := range st.active {
		st.active[i] = true
	}
	return st
}

// ccwsWarp is the per-warp locality state.
type ccwsWarp struct {
	vta   []memtypes.LineAddr // FIFO ring of recently missed lines
	head  int
	score float64
}

type ccwsState struct {
	sim.BasePolicy
	cfg    CCWS
	sm     *sim.SM
	warps  []ccwsWarp
	active []bool

	lastRank       int64
	lostDetections int64
	descheduled    int64 // time-integral of descheduled warps
	cycles         int64
}

// rankInterval is how often the score stack is re-evaluated (cycles).
const rankInterval = 128

// WarpActive implements sim.SMPolicy.
func (s *ccwsState) WarpActive(warpSlot int) bool { return s.active[warpSlot] }

// OnLoadOutcome implements sim.SMPolicy: detect lost intra-warp locality.
func (s *ccwsState) OnLoadOutcome(warpSlot int, pc uint32, line memtypes.LineAddr, out sim.Outcome, cycle int64) {
	if out == sim.OutHit || out == sim.OutRegHit {
		return
	}
	w := &s.warps[warpSlot]
	for _, t := range w.vta {
		if t == line {
			// The warp touched this line recently and misses on it again:
			// its locality was destroyed by intervening evictions.
			w.score += s.cfg.ScoreHit
			s.lostDetections++
			break
		}
	}
	if len(w.vta) < s.cfg.VTAEntries {
		w.vta = append(w.vta, line)
		return
	}
	w.vta[w.head] = line
	w.head = (w.head + 1) % s.cfg.VTAEntries
}

// OnCycle implements sim.SMPolicy: decay scores and periodically rebuild
// the active set from the score stack.
func (s *ccwsState) OnCycle(cycle int64) {
	s.cycles++
	for i := range s.warps {
		if sc := &s.warps[i].score; *sc > 0 {
			*sc -= s.cfg.DecayPerCycle
			if *sc < 0 {
				*sc = 0
			}
		}
	}
	if cycle-s.lastRank < rankInterval {
		for _, a := range s.active {
			if !a {
				s.descheduled++
			}
		}
		return
	}
	s.rank(cycle)
}

// rank deschedules the lowest-scoring warps in proportion to the aggregate
// lost-locality score, and tells the SM's issue stage when it re-admits a
// descheduled warp.
func (s *ccwsState) rank(cycle int64) {
	s.lastRank = cycle
	total := 0.0
	for i := range s.warps {
		total += s.warps[i].score
	}
	n := len(s.warps)
	desched := int(total / s.cfg.ScorePerDescheduledWarp)
	if desched > n-s.sm.Kernel().WarpsPerCTA {
		// Keep at least one CTA's worth of warps running.
		desched = n - s.sm.Kernel().WarpsPerCTA
	}
	if desched < 0 {
		desched = 0
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		return s.warps[idx[a]].score < s.warps[idx[b]].score
	})
	opened := false
	for i, w := range idx {
		opened = opened || (!s.active[w] && i >= desched)
		s.active[w] = i >= desched
	}
	if opened {
		s.sm.GateOpened()
	}
}

// ExtraStats implements sim.ExtraStatser.
func (s *ccwsState) ExtraStats() map[string]float64 {
	activeNow := 0
	for _, a := range s.active {
		if a {
			activeNow++
		}
	}
	avgDesched := 0.0
	if s.cycles > 0 {
		avgDesched = float64(s.descheduled) / float64(s.cycles)
	}
	return map[string]float64{
		"ccws_lost_detections": float64(s.lostDetections),
		"ccws_active_warps":    float64(activeNow),
		"ccws_desched_avg":     avgDesched,
	}
}

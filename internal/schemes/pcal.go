package schemes

import (
	"github.com/linebacker-sim/linebacker/internal/sim"
)

// PCAL is Priority-based Cache ALlocation (Li et al., HPCA '15) at the
// level of detail the paper models it: a number of token-holding warps may
// allocate in the L1; non-token warps keep running but bypass the L1, so
// thread-level parallelism is preserved while cache contention is capped.
// The token count is tuned at window boundaries by the same IPC-variation
// hill-climbing the paper's throttling schemes use.
type PCAL struct{}

// Name implements sim.Policy.
func (PCAL) Name() string { return "PCAL" }

// Attach implements sim.Policy.
func (PCAL) Attach(sm *sim.SM) sim.SMPolicy {
	maxWarps := sm.MaxResident() * sm.Kernel().WarpsPerCTA
	return &pcalState{sm: sm, tokens: maxWarps, maxWarps: maxWarps}
}

type pcalState struct {
	sim.BasePolicy
	sm       *sim.SM
	tokens   int // warps allowed to allocate in L1
	maxWarps int

	windowStart  int64
	retiredStart int64
	prevIPC      float64
	bestIPC      float64
	windows      int
	bypassWarps  int64 // stat: time-integral of non-token warps
	cycles       int64
}

// AllocateL1 grants allocation to token-holding warps only. Tokens go to
// the lowest warp slots (oldest CTAs occupy low slots in steady state).
func (p *pcalState) AllocateL1(warpSlot int, pc uint32) bool {
	return warpSlot < p.tokens
}

// OnCycle tunes the token count at window boundaries.
func (p *pcalState) OnCycle(cycle int64) {
	p.cycles++
	p.bypassWarps += int64(p.maxWarps - p.tokens)
	if cycle-p.windowStart < int64(p.sm.Config().LB.WindowCycles) {
		return
	}
	p.retune(cycle)
}

// retune moves the token count by the IPC-variation hill-climb at a window
// boundary.
func (p *pcalState) retune(cycle int64) {
	cfg := p.sm.Config()
	retired := p.sm.Retired() - p.retiredStart
	ipc := float64(retired) / float64(cycle-p.windowStart)
	p.windowStart = cycle
	p.retiredStart = p.sm.Retired()
	p.windows++

	if ipc > p.bestIPC {
		p.bestIPC = ipc
	}
	step := p.sm.Kernel().WarpsPerCTA
	switch {
	case p.windows == 2:
		// Kick-start: probe aggressively whether restricting allocation
		// helps (non-token warps keep running, so the parallelism cost of
		// a wrong guess is small — PCAL's selling point over throttling).
		p.tokens = maxInt(step, p.maxWarps/2)
	case p.windows > 2 && p.prevIPC > 0:
		vari := (ipc - p.prevIPC) / p.prevIPC
		drifted := p.bestIPC > 0 && (ipc-p.bestIPC)/p.bestIPC < cfg.LB.IPCVarLower/2
		if vari > cfg.LB.IPCVarUpper {
			p.tokens = maxInt(step, p.tokens-step)
		} else if vari < cfg.LB.IPCVarLower || drifted {
			p.tokens = minInt(p.maxWarps, p.tokens+step)
		}
	}
	p.prevIPC = ipc
}

// ExtraStats implements sim.ExtraStatser.
func (p *pcalState) ExtraStats() map[string]float64 {
	avgBypass := 0.0
	if p.cycles > 0 {
		avgBypass = float64(p.bypassWarps) / float64(p.cycles)
	}
	return map[string]float64{
		"pcal_tokens":           float64(p.tokens),
		"pcal_bypass_warps_avg": avgBypass,
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Package sim is the cycle-level GPU engine: streaming multiprocessors with
// GTO warp schedulers, a coalescing LSU, per-SM L1 caches, a shared L2,
// banked DRAM, and a CTA dispatcher. Scheme behaviour (baseline, SWL, PCAL,
// CERF, Linebacker, ...) plugs in through the Policy interfaces below.
package sim

import (
	"github.com/linebacker-sim/linebacker/internal/cache"
	"github.com/linebacker-sim/linebacker/internal/memtypes"
)

// Policy is a cache/scheduling scheme. One Policy is attached to a run and
// produces one SMPolicy per SM (schemes keep per-SM state: monitors, tag
// tables, throttle controllers).
type Policy interface {
	// Name identifies the scheme in reports.
	Name() string
	// Attach binds the policy to an SM before the run starts. The policy
	// may reshape the SM here (e.g. CacheExt resizes the L1).
	Attach(sm *SM) SMPolicy
}

// SMPolicy is the per-SM half of a Policy. The engine calls these hooks on
// the simulation fast path; implementations must not retain the cycle
// argument across calls.
type SMPolicy interface {
	// CTAActive reports whether the CTA in the given slot may issue
	// instructions this cycle (false = throttled).
	//
	// Gates (CTAActive and WarpActive) are pure functions of policy state.
	// The issue stage keeps each scheduler's wake bound past a gated-off
	// ready warp, and a sleeping SM wakes at the least of those bounds, so
	// a hook that may turn an answer from false to true must call
	// SM.GateOpened on its SM. Closing a gate needs no call: it only
	// delays picks. See DESIGN.md §10.
	CTAActive(slot int) bool

	// WarpActive reports whether the individual warp slot may issue this
	// cycle. CCWS-style schemes throttle at warp rather than CTA
	// granularity through this hook. The GateOpened contract of CTAActive
	// applies.
	WarpActive(warpSlot int) bool

	// AllowNewCTA gates the dispatcher: return false to keep a freed CTA
	// slot empty (schemes that throttle want to reactivate their own
	// inactive CTAs instead of admitting new ones).
	AllowNewCTA() bool

	// AllocateL1 decides whether a load miss for the given static load may
	// allocate a line in L1 (false = bypass).
	AllocateL1(warpSlot int, pc uint32) bool

	// ExtraL1Latency lets a scheme add latency to an L1 access (CERF models
	// register-bank contention on every cache access here). Called once per
	// line request that reaches the L1.
	ExtraL1Latency(line memtypes.LineAddr, cycle int64) int

	// ProbeVictim is consulted on an L1 miss before the request goes below.
	// A hit returns the extra latency of the register-file read path and
	// the engine completes the load without touching L2; a miss may return
	// the latency its (serial) tag search cost, which the engine adds to
	// the downstream fetch.
	ProbeVictim(line memtypes.LineAddr, pc uint32, cycle int64) (hit bool, extraLatency int)

	// OnEviction offers an L1 eviction to the scheme's victim store.
	OnEviction(ev cache.Eviction, cycle int64)

	// OnLoadOutcome reports the final outcome of one load line-request so
	// locality monitors can count hits and misses per static load and per
	// issuing warp.
	OnLoadOutcome(warpSlot int, pc uint32, line memtypes.LineAddr, out Outcome, cycle int64)

	// OnStore is called for every store line-request before it is sent
	// below; schemes must invalidate any victim copy (victim lines are
	// never dirty).
	OnStore(line memtypes.LineAddr, cycle int64)

	// OnCTALaunch and OnCTAComplete track CTA residency. seq is the global
	// launch sequence number.
	OnCTALaunch(slot, seq int, cycle int64)
	OnCTAComplete(slot int, cycle int64)

	// OnRegResponse completes a register backup/restore request previously
	// sent with SM.SendRegTraffic.
	OnRegResponse(req *memtypes.Request, cycle int64)

	// OnCycle runs once per cycle after the SM pipelines ticked; schemes
	// implement window boundaries, backup draining and throttle decisions
	// here.
	OnCycle(cycle int64)

	// NextEvent advertises the earliest cycle (>= now) at which the policy
	// can change simulated state on its own — typically its next window or
	// ranking boundary. ok == false means the policy is quiescent: it will
	// not change state until some engine hook (load outcome, CTA launch,
	// register response, ...) fires. Returning now keeps the SM awake.
	// Advertising too early is always safe; advertising past a state change
	// is an engine bug (property-tested). See DESIGN.md §10.
	NextEvent(now int64) (int64, bool)

	// SkipCycles informs the policy that its SM slept from cycle `from` to
	// cycle `to` without ticking: OnCycle was not called for cycles
	// [from, to). The engine currently passes one-cycle spans. Policies that
	// integrate per-cycle quantities (occupancy, victim-capacity or
	// unused-register byte-cycles) must apply the closed-form update for the
	// span here, bit-identically to `to-from` repeated OnCycle calls.
	SkipCycles(from, to int64)
}

// Outcome classifies one load line-request for reporting (Figure 13) and
// for per-load locality monitoring.
type Outcome uint8

const (
	// OutHit: L1 hit.
	OutHit Outcome = iota
	// OutPendingHit: merged into an outstanding fill (reported as miss
	// latency but not a new request below).
	OutPendingHit
	// OutMiss: L1 miss serviced by L2/DRAM with allocation.
	OutMiss
	// OutBypass: L1 miss serviced below without allocation.
	OutBypass
	// OutRegHit: serviced from the register-file victim cache.
	OutRegHit
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case OutHit:
		return "hit"
	case OutPendingHit:
		return "pending-hit"
	case OutMiss:
		return "miss"
	case OutBypass:
		return "bypass"
	case OutRegHit:
		return "reg-hit"
	default:
		return "unknown"
	}
}

// BasePolicy is a no-op SMPolicy: every CTA active, every load allocates,
// no victim cache. Schemes embed it and override what they need.
type BasePolicy struct{}

// CTAActive implements SMPolicy.
func (BasePolicy) CTAActive(int) bool { return true }

// WarpActive implements SMPolicy.
func (BasePolicy) WarpActive(int) bool { return true }

// AllowNewCTA implements SMPolicy.
func (BasePolicy) AllowNewCTA() bool { return true }

// AllocateL1 implements SMPolicy.
func (BasePolicy) AllocateL1(int, uint32) bool { return true }

// ExtraL1Latency implements SMPolicy.
func (BasePolicy) ExtraL1Latency(memtypes.LineAddr, int64) int { return 0 }

// ProbeVictim implements SMPolicy.
func (BasePolicy) ProbeVictim(memtypes.LineAddr, uint32, int64) (bool, int) { return false, 0 }

// OnEviction implements SMPolicy.
func (BasePolicy) OnEviction(cache.Eviction, int64) {}

// OnLoadOutcome implements SMPolicy.
func (BasePolicy) OnLoadOutcome(int, uint32, memtypes.LineAddr, Outcome, int64) {}

// OnStore implements SMPolicy.
func (BasePolicy) OnStore(memtypes.LineAddr, int64) {}

// OnCTALaunch implements SMPolicy.
func (BasePolicy) OnCTALaunch(int, int, int64) {}

// OnCTAComplete implements SMPolicy.
func (BasePolicy) OnCTAComplete(int, int64) {}

// OnRegResponse implements SMPolicy.
func (BasePolicy) OnRegResponse(*memtypes.Request, int64) {}

// OnCycle implements SMPolicy.
func (BasePolicy) OnCycle(int64) {}

// NextEvent implements SMPolicy: the base policy is stateless, so it is
// permanently quiescent. Schemes whose OnCycle does real work must override
// this (and SkipCycles) — the lbvet skipcontract analyzer enforces it.
func (BasePolicy) NextEvent(int64) (int64, bool) { return 0, false }

// SkipCycles implements SMPolicy: nothing accrues per cycle.
func (BasePolicy) SkipCycles(int64, int64) {}

// Baseline is the unmodified GPU of Table 1.
type Baseline struct{}

// Name implements Policy.
func (Baseline) Name() string { return "Baseline" }

// Attach implements Policy.
func (Baseline) Attach(*SM) SMPolicy { return BasePolicy{} }

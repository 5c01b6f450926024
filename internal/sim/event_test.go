package sim

import (
	"fmt"
	"testing"

	"github.com/linebacker-sim/linebacker/internal/config"
	"github.com/linebacker-sim/linebacker/internal/workload"
)

// eventBoundChecker proves the event-lower-bound half of the sleeping
// contract (DESIGN.md §10) from inside a strict run, per SM, against the
// wake stepSM computed after its tick (sm.nextWake, which the strict
// engine computes exactly as the sleeping one does). After every tick it
// fingerprints the SM's state that is NOT a per-cycle accrual, and while
// the SM's last advertisement E lies in the future it demands the
// fingerprint stay frozen until E. A change at any cycle < E means the SM
// advertised its event too late — the exact bug class that would make a
// sleeping run diverge from this strict one.
//
// It is a FaultInjector, so its Stage hook observes each SM right after
// the engine phase that ticks it: at "l2" (the SM phase runs from "sm" to
// "l2"). An injector only disables sleeping, and the run is strict anyway.
// External inputs re-arm an SM's bound the way production does: a CTA
// launch or response delivery resets its wake to 0. A wake of 0 is also
// what stepSM computes after a tick whose policy opened a gate, so the
// checker sets the wake to neverWake after each observation (strict runs
// never read it): a 0 seen before the next SM phase can then only be a
// reset. A state change that bypassed those signals shows up as a
// violation.
//
// The exempt accruals (scheduler IssueIdle, L1 MSHRStalls, policy
// byte-cycle integrals) are the quantities sleepCycle and
// SMPolicy.SkipCycles apply in closed form; everything else must be
// event-driven.
type eventBoundChecker struct {
	sms     []sleeperBound
	checks  int64
	smSpans int64 // advertisements with until > now+1 (real sleepable spans)
	err     error
}

// sleeperBound is one SM's fingerprint after its last tick and the cycle
// before which that fingerprint must not change.
type sleeperBound struct {
	fp    uint64
	until int64
}

// observe checks one SM right after its tick at cycle cyc and re-arms its
// bound from wake, the nextWake stepSM just computed, when the state moved
// or the bound expired. span reports an advertisement that covers more
// than one cycle; err reports a state change before the advertised event.
func (b *sleeperBound) observe(fp uint64, cyc, wake int64) (span bool, err error) {
	if fp != b.fp && cyc < b.until {
		adv := fmt.Sprintf("no event before cycle %d", b.until)
		if b.until == neverWake {
			adv = "no event at all"
		}
		return false, fmt.Errorf("changed state at cycle %d, but stepSM advertised %s", cyc, adv)
	}
	if fp != b.fp || cyc+1 >= b.until {
		b.until = wake
		span = wake > cyc+2
	}
	b.fp = fp
	return span, nil
}

func (c *eventBoundChecker) Stage(g *GPU, stage string, cyc int64) {
	if c.err != nil {
		return
	}
	switch stage {
	case "sm":
		if c.sms == nil {
			c.sms = make([]sleeperBound, len(g.sms))
		}
		for i, sm := range g.sms {
			if sm.nextWake == 0 { // a response or CTA launch since the last tick
				c.sms[i].until = cyc
			}
		}
	case "l2":
		c.checks++
		for i, sm := range g.sms {
			span, err := c.sms[i].observe(smFingerprint(sm), cyc, sm.nextWake)
			if err != nil {
				c.err = fmt.Errorf("SM %d %w", i, err)
				return
			}
			if span {
				c.smSpans++
			}
			sm.nextWake = neverWake
		}
	}
}

// fingerprint is an FNV-1a digest over int64 words.
type fingerprint uint64

func newFingerprint() fingerprint { return 14695981039346656037 }

func (h *fingerprint) mix(v int64) {
	const prime64 = 1099511628211
	u := uint64(v)
	for i := 0; i < 8; i++ {
		*h ^= fingerprint(u & 0xff)
		*h *= prime64
		u >>= 8
	}
}

func (h *fingerprint) mixb(b bool) {
	if b {
		h.mix(1)
	} else {
		h.mix(0)
	}
}

// smFingerprint digests every piece of SM state the event protocol
// promises is frozen while the SM sleeps. Per-cycle accruals and policy
// state are deliberately absent (a policy's gate flip only matters once a
// warp acts on it); L1 structural state enters through StateHash, which
// excludes the accruals by construction.
func smFingerprint(sm *SM) uint64 {
	h := newFingerprint()
	h.mix(sm.Stats.Retired)
	h.mix(sm.Stats.StoreReqs)
	h.mix(sm.Stats.CTALaunches)
	h.mix(sm.Stats.CTADone)
	for _, v := range sm.Stats.LoadReqs {
		h.mix(v)
	}
	h.mix(int64(sm.lsu.Len()))
	h.mix(int64(sm.outbox.Len()))
	h.mix(int64(sm.freeSlots))
	h.mix(int64(sm.l1.StateHash()))
	for i := range sm.warps {
		w := &sm.warps[i]
		h.mixb(w.Alive)
		h.mixb(w.retired)
		h.mix(int64(w.iter))
		h.mix(int64(w.pcIdx))
		h.mix(w.readyAt)
		h.mix(int64(w.memPending))
	}
	return uint64(h)
}

// pulsePolicy gates every CTA off during alternating windows of `period`
// cycles and advertises the boundary through NextEvent — a minimal
// policy-driven event source that forces the SM to merge policy events
// into its wake bound. During an "off" phase the whole SM front-end is
// idle, so any too-late advertisement from the policy merge path would
// surface as a lower-bound violation.
//
// NextEvent has two forms. The default is the ceiling of now to a
// boundary. fromLast is the form CCWS, PCAL and Linebacker use: the last
// boundary OnCycle passed plus period. Right after the flip that opens the
// gates it already names the next boundary, so the SM learns of the
// opening only through GateOpened.
type pulsePolicy struct {
	period   int64
	fromLast bool
}

func (p pulsePolicy) Name() string { return "pulse" }
func (p pulsePolicy) Attach(sm *SM) SMPolicy {
	return &pulseState{sm: sm, period: p.period, fromLast: p.fromLast}
}

type pulseState struct {
	BasePolicy
	sm       *SM
	period   int64
	fromLast bool
	on       bool
	last     int64 // the last boundary OnCycle passed
}

func (s *pulseState) CTAActive(int) bool { return s.on }
func (s *pulseState) OnCycle(cycle int64) {
	was := s.on
	s.on = (cycle/s.period)%2 == 0
	if cycle%s.period == 0 {
		s.last = cycle
	}
	if s.on && !was {
		s.sm.GateOpened()
	}
}
func (s *pulseState) NextEvent(now int64) (int64, bool) {
	if s.fromLast {
		return max(s.last+s.period, now), true
	}
	// The phase flips during OnCycle of every multiple of period, so the
	// earliest self-event >= now is the ceiling boundary (now itself when
	// now is a boundary — the eventBoundChecker caught the off-by-one
	// floor+period version advertising past a flip).
	return (now + s.period - 1) / s.period * s.period, true
}
func (s *pulseState) SkipCycles(from, to int64) {
	// on and last are pure functions of the cycles OnCycle saw; replay the
	// final slept cycle's phase, and the last boundary the span passed, so
	// a sleeping run lands in the same state.
	if to > from {
		s.on = ((to-1)/s.period)%2 == 0
		if b := (to - 1) / s.period * s.period; b >= from {
			s.last = b
		}
	}
}

func eventBoundCfg() config.Config {
	cfg := config.Default()
	cfg.GPU.NumSMs = 4
	cfg.GPU.DRAMBandwidthGBs = 176.25
	cfg.GPU.DRAMChannels = 4
	cfg.GPU.L2Bytes = 512 * 1024
	cfg.LB.WindowCycles = 12500
	cfg.Strict = true // never sleep, so the checker sees each transition
	return cfg
}

// pulsePolicies names the pulse policy in both NextEvent forms.
var pulsePolicies = map[string]pulsePolicy{
	"pulse":      {period: 3000},
	"pulse-last": {period: 3000, fromLast: true},
}

// TestEventLowerBound runs strict simulations with the lower-bound checker
// installed: every event an SM advertises must be a true lower bound on
// its next state change. Covers a memory-bound benchmark under the
// stateless baseline (warp readyAt / MSHR events) and under a
// window-pulsed gating policy in both NextEvent forms (the policy merge
// path, and gates opened in OnCycle).
func TestEventLowerBound(t *testing.T) {
	benches := []string{"S2", "BC"}
	if testing.Short() {
		benches = benches[:1]
	}
	pols := map[string]func() Policy{
		"baseline": func() Policy { return Baseline{} },
	}
	for name, p := range pulsePolicies {
		pols[name] = func() Policy { return p }
	}
	for _, bench := range benches {
		b, ok := workload.ByName(bench)
		if !ok {
			t.Fatalf("workload %s not found", bench)
		}
		for name, mk := range pols {
			t.Run(bench+"/"+name, func(t *testing.T) {
				t.Parallel() // each case owns its GPU; no shared state
				cfg := eventBoundCfg()
				g, err := New(cfg, b.Kernel, mk())
				if err != nil {
					t.Fatal(err)
				}
				chk := &eventBoundChecker{}
				g.SetFaultInjector(chk)
				g.Run(60_000)
				if chk.err != nil {
					t.Fatalf("event lower bound violated: %v", chk.err)
				}
				if chk.checks == 0 {
					t.Fatal("checker never ran")
				}
				if chk.smSpans == 0 {
					t.Error("no multi-cycle SM advertisement; the property is vacuous")
				}
				t.Logf("checked %d cycles; %d multi-cycle SM advertisements", chk.checks, chk.smSpans)
			})
		}
	}
}

// TestPulsePolicySkipEquivalence cross-checks the pulse policy used above,
// in both NextEvent forms: its own NextEvent/SkipCycles implementation
// must satisfy the invisibility contract, which doubles as a second
// strict-vs-sleeping differential on a policy written independently of
// the shipped schemes.
func TestPulsePolicySkipEquivalence(t *testing.T) {
	b, ok := workload.ByName("S2")
	if !ok {
		t.Fatal("workload S2 not found")
	}
	for name, pol := range pulsePolicies {
		t.Run(name, func(t *testing.T) {
			run := func(strict bool) (string, int64) {
				cfg := eventBoundCfg()
				cfg.Strict = strict
				g, err := New(cfg, b.Kernel, pol)
				if err != nil {
					t.Fatal(err)
				}
				g.Run(60_000)
				return g.StateDump(), g.SleptSMCycles()
			}
			ds, _ := run(true)
			dk, slept := run(false)
			if ds != dk {
				t.Fatalf("%s diverged between strict and sleeping:\n--- strict ---\n%s\n--- sleeping ---\n%s", name, ds, dk)
			}
			if slept == 0 {
				t.Error("sleeping run never slept an SM-cycle; differential was vacuous")
			}
		})
	}
}

package sim

import (
	"fmt"
	"reflect"
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
// Inputs re-arm an SM's bound the way production does: a CTA launch, a
// response delivery or an opened gate resets its wake to 0. The checker
// sets the wake to neverWake after each observation (strict runs never
// read it), so a 0 seen at the next "sm" stage can only be a launch or a
// response. A gate opened inside the tick instead leaves a wake below the
// standing bound with no state change, and the checker re-arms on that.
// A state change that bypassed those signals shows up as a violation.
//
// The exempt accruals (scheduler IssueIdle, L1 MSHRStalls) are the
// quantities sleepCycle applies; policy state is the policy's own, since
// its OnCycle runs in slept cycles too. Everything else must be
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
// bound from wake, the nextWake stepSM just computed, when the state moved,
// the bound expired or the wake fell below it (a gate opened in the tick).
// span reports an advertisement that covers more than one cycle; err
// reports a state change before the advertised event.
func (b *sleeperBound) observe(fp uint64, cyc, wake int64) (span bool, err error) {
	if fp != b.fp && cyc < b.until {
		adv := fmt.Sprintf("no event before cycle %d", b.until)
		if b.until == neverWake {
			adv = "no event at all"
		}
		return false, fmt.Errorf("changed state at cycle %d, but stepSM advertised %s", cyc, adv)
	}
	if fp != b.fp || cyc+1 >= b.until || wake < b.until {
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
// cycles and declares only OnCycle: it flips its gates at period
// boundaries, calls GateOpened when they open, and counts its "on" cycles
// into ExtraStats. During an "off" phase the whole SM front end is idle,
// so the SM sleeps through it and learns of the next opening only through
// GateOpened, from an OnCycle that runs in a slept cycle. A sleeper that
// skipped OnCycle, or slept past the gate signal, would diverge from
// strict.
type pulsePolicy struct {
	period int64
}

func (p pulsePolicy) Name() string { return "pulse" }
func (p pulsePolicy) Attach(sm *SM) SMPolicy {
	return &pulseState{sm: sm, period: p.period}
}

type pulseState struct {
	BasePolicy
	sm       *SM
	period   int64
	on       bool
	onCycles int64
}

func (s *pulseState) CTAActive(int) bool { return s.on }
func (s *pulseState) OnCycle(cycle int64) {
	was := s.on
	s.on = (cycle/s.period)%2 == 0
	if s.on {
		s.onCycles++
	}
	if s.on && !was {
		s.sm.GateOpened()
	}
}
func (s *pulseState) ExtraStats() map[string]float64 {
	return map[string]float64{"pulse_on_cycles": float64(s.onCycles)}
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

// pulse is the gate-pulsing policy both tests below run.
var pulse = pulsePolicy{period: 3000}

// TestEventLowerBound runs strict simulations with the lower-bound checker
// installed: every event an SM advertises must be a true lower bound on
// its next state change. Covers a memory-bound benchmark under the
// stateless baseline (warp readyAt / MSHR events) and under a
// window-pulsed gating policy (gates opened in OnCycle).
func TestEventLowerBound(t *testing.T) {
	benches := []string{"S2", "BC"}
	if testing.Short() {
		benches = benches[:1]
	}
	pols := map[string]Policy{
		"baseline": Baseline{},
		"pulse":    pulse,
	}
	for _, bench := range benches {
		b, ok := workload.ByName(bench)
		if !ok {
			t.Fatalf("workload %s not found", bench)
		}
		for name, pol := range pols {
			t.Run(bench+"/"+name, func(t *testing.T) {
				t.Parallel() // each case owns its GPU; no shared state
				cfg := eventBoundCfg()
				g, err := New(cfg, b.Kernel, pol)
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
// a policy that declares only OnCycle and whose gates change only there:
// strict and sleeping runs must agree on every Result field, the policy's
// ExtraStats included, and on the StateDump. It doubles as a second
// strict-vs-sleeping differential on a policy written independently of
// the shipped schemes.
func TestPulsePolicySkipEquivalence(t *testing.T) {
	b, ok := workload.ByName("S2")
	if !ok {
		t.Fatal("workload S2 not found")
	}
	t.Run(pulse.Name(), func(t *testing.T) {
		run := func(strict bool) (*Result, string, int64) {
			cfg := eventBoundCfg()
			cfg.Strict = strict
			g, err := New(cfg, b.Kernel, pulse)
			if err != nil {
				t.Fatal(err)
			}
			g.Run(60_000)
			return g.Collect(), g.StateDump(), g.SleptSMCycles()
		}
		rs, ds, _ := run(true)
		rk, dk, slept := run(false)
		if !reflect.DeepEqual(rs, rk) {
			t.Errorf("results diverged between strict and sleeping:\n strict   %+v\n sleeping %+v", rs, rk)
		}
		if ds != dk {
			t.Fatalf("diverged between strict and sleeping:\n--- strict ---\n%s\n--- sleeping ---\n%s", ds, dk)
		}
		if rs.Extra["pulse_on_cycles"] == 0 {
			t.Error("the pulse policy never counted an on cycle; the Extra comparison was vacuous")
		}
		if slept == 0 {
			t.Error("sleeping run never slept an SM-cycle; differential was vacuous")
		}
		t.Logf("%d instructions; %d SM-cycles slept", rs.Instructions, slept)
	})
}

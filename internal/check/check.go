// Package check is the simulator's verification subsystem. It cross-checks
// the cycle engine in internal/sim four independent ways:
//
//  1. Runtime invariant checking (Checker): a sim.CycleChecker that sweeps
//     the engine's conservation laws while a run executes — request-count
//     conservation across LSU/interconnect/L2/DRAM, MSHR and scoreboard
//     leak freedom, the Figure 13 load-outcome identity, and policy-internal
//     laws such as Linebacker's victim-capacity bound (via SelfChecker).
//  2. Differential testing (EquivalencePairs, RunPair): pairs of policies
//     that must provably converge — e.g. a victim-caching scheme given zero
//     victim space versus the baseline — executed on the same (bench, seed)
//     and compared metric by metric.
//  3. Metamorphic properties (SeedDeterminism, L1SizeMonotonicity,
//     AggregationConsistency): transformations of a run whose effect on the
//     result is known in advance.
//  4. Golden-metrics regression (Capture, Snapshot): a committed snapshot of
//     headline metrics for every benchmark under the reference schemes,
//     regenerated with `go test ./internal/check -run Golden -update`.
//
// Invariant checking is off by default. Enable it for any run through
// config.Config.Check (honoured by the top-level linebacker API, the
// experiment harness and the -check flag of cmd/lbsim), or attach a Checker
// directly with Attach.
package check

import (
	"fmt"

	"github.com/linebacker-sim/linebacker/internal/sim"
)

// Violation records one failed invariant sweep.
type Violation struct {
	Cycle int64
	Rule  string
	Err   error
}

func (v Violation) String() string {
	return fmt.Sprintf("cycle %d: %s: %v", v.Cycle, v.Rule, v.Err)
}

// Rule is one named conservation law checked against the whole GPU.
type Rule struct {
	Name  string
	Check func(g *sim.GPU) error
}

// Checker sweeps a rule set over a running simulation. It implements
// sim.CycleChecker; in fail-fast mode (the default) the first violation
// aborts the run, otherwise violations accumulate for later inspection.
type Checker struct {
	every   int64
	collect bool
	maxViol int
	rules   []Rule

	violations []Violation
	sweeps     int64
}

// Option configures a Checker.
type Option func(*Checker)

// Every sets the cycle interval between sweeps (minimum 1).
func Every(n int64) Option {
	return func(c *Checker) {
		if n < 1 {
			n = 1
		}
		c.every = n
	}
}

// Collect switches the checker from fail-fast to recording mode: violations
// are retained (up to a cap) and the simulation continues. Used by tests
// that deliberately inject accounting bugs.
func Collect() Option {
	return func(c *Checker) { c.collect = true }
}

// WithRules replaces the default rule set.
func WithRules(rules []Rule) Option {
	return func(c *Checker) { c.rules = rules }
}

// New builds a checker over the default engine rule set.
func New(opts ...Option) *Checker {
	c := &Checker{every: 1, maxViol: 64, rules: EngineRules()}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Attach builds a checker and installs it on the GPU. It sweeps every
// cycle unless given an Every option.
func Attach(g *sim.GPU, opts ...Option) *Checker {
	c := New(opts...)
	g.SetChecker(c)
	return c
}

// CheckCycle implements sim.CycleChecker.
func (c *Checker) CheckCycle(g *sim.GPU, cycle int64) error {
	if cycle%c.every != 0 {
		return nil
	}
	c.sweeps++
	for _, r := range c.rules {
		err := r.Check(g)
		if err == nil {
			continue
		}
		if !c.collect {
			return fmt.Errorf("%s: %w", r.Name, err)
		}
		if len(c.violations) < c.maxViol {
			c.violations = append(c.violations, Violation{Cycle: cycle, Rule: r.Name, Err: err})
		}
	}
	return nil
}

// Violations returns the recorded violations (Collect mode).
func (c *Checker) Violations() []Violation { return c.violations }

// Sweeps returns how many cycle sweeps ran.
func (c *Checker) Sweeps() int64 { return c.sweeps }

// SelfChecker is implemented by SM policies that can verify their own
// internal conservation laws (e.g. Linebacker's victim-capacity bound).
type SelfChecker interface {
	CheckInvariants() error
}

// VictimHitser is implemented by SM policies that count the victim-cache
// hits they service; the checker cross-checks the count against the
// engine's OutRegHit tally.
type VictimHitser interface {
	VictimHits() int64
}

// RegInflighter is implemented by SM policies that emit register
// backup/restore traffic; the checker matches the reported in-flight count
// against a census of the memory system.
type RegInflighter interface {
	RegInflight() int
}

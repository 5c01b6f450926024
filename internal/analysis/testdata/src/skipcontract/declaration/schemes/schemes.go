// Package schemes exercises the declaration layer of the skipcontract
// analyzer: per-cycle mutators declare the event protocol. The package name
// puts it in the simulation-state scope.
package schemes

// base mimics sim.BasePolicy: it declares the full event protocol itself,
// so it is clean — and it makes the embedding cases below compile the same
// way the real schemes do.
type base struct{}

func (base) OnCycle(int64)                 {}
func (base) NextEvent(int64) (int64, bool) { return 0, false }
func (base) SkipCycles(int64, int64)       {}

// silentWindow is the bug the declaration layer exists for: it embeds base,
// overrides OnCycle with real window work, and inherits the permanently
// quiescent NextEvent/SkipCycles. It satisfies the policy interface via
// promotion, and a skipping run jumps straight over its window boundaries.
type silentWindow struct {
	base
	window int64
	active bool
}

func (s *silentWindow) OnCycle(cycle int64) { // want `silentWindow declares OnCycle but neither NextEvent nor SkipCycles`
	s.active = (cycle/s.window)%2 == 0
}

// halfProtocol advertises its events but forgets the closed-form accrual.
type halfProtocol struct {
	base
	busy int64
}

func (h *halfProtocol) OnCycle(cycle int64) { // want `halfProtocol declares OnCycle but no SkipCycles`
	h.busy++
}

func (h *halfProtocol) NextEvent(now int64) (int64, bool) { return now, true }

// accrualOnly applies skipped spans but never advertises an event.
type accrualOnly struct {
	base
	idle int64
}

func (a *accrualOnly) OnCycle(int64) { // want `accrualOnly declares OnCycle but no NextEvent`
	a.idle++
}

func (a *accrualOnly) SkipCycles(from, to int64) { a.idle += to - from }

// queue mimics the DRAM: a TickEach queue ticked on every cycle, which
// never sleeps and so owes no NextEvent: clean.
type queue struct {
	items []int64
}

func (q *queue) TickEach(cycle int64, fn func(int64)) {
	for _, it := range q.items {
		fn(it)
	}
}

// link mimics the interconnect: a DeliverEach queue drained on every
// ticked cycle, which never sleeps and so owes no NextEvent: clean.
type link struct {
	q []int64
}

func (l *link) DeliverEach(cycle int64, fn func(int64)) {
	for _, it := range l.q {
		fn(it)
	}
}

// full declares the whole protocol and closes every write: clean.
type full struct {
	integral float64
}

func (f *full) OnCycle(int64)                     { f.integral++ }
func (f *full) NextEvent(now int64) (int64, bool) { return now + 1, true }
func (f *full) SkipCycles(from, to int64)         { f.integral += float64(to - from) }

// Package schemes exercises the closure layer of the skipcontract analyzer:
// the skip method reproduces every per-cycle write. The package name puts it
// in the simulation-state scope.
package schemes

// gateStale is the fused-wake bug shape: OnCycle flips an issue gate
// that SkipCycles forgets, so a skipped span resumes with a stale gate.
type gateStale struct {
	cycles int64
	gate   bool
}

func (g *gateStale) OnCycle(cycle int64) {
	g.cycles++
	g.gate = cycle%2 == 0 // want `gateStale.OnCycle writes field "gate" but SkipCycles does not reproduce it`
}

func (g *gateStale) NextEvent(now int64) (int64, bool) { return now + 1, true }

func (g *gateStale) SkipCycles(from, to int64) { g.cycles += to - from }

// transitive hides the forgotten write one call deep: the closure follows
// same-package calls, so decay's write is charged to OnCycle.
type transitive struct {
	cycles int64
	score  float64
}

func (t *transitive) OnCycle(cycle int64) {
	t.cycles++
	t.decay() // want `transitive.OnCycle writes field "score" \(via decay\) but SkipCycles does not reproduce it`
}

func (t *transitive) decay() { t.score *= 0.5 }

func (t *transitive) NextEvent(now int64) (int64, bool) { return now + 1, true }

func (t *transitive) SkipCycles(from, to int64) { t.cycles += to - from }

// boundMethod escapes through a method directive: retune only runs at
// boundaries NextEvent advertises, which excuses everything it writes.
type boundMethod struct {
	cycles int64
	window int64
}

func (b *boundMethod) OnCycle(cycle int64) {
	b.cycles++
	b.retune(cycle)
}

// retune runs only at the window boundary NextEvent advertises (fixture).
//
//lbvet:eventbound
func (b *boundMethod) retune(cycle int64) { b.window = cycle }

func (b *boundMethod) NextEvent(now int64) (int64, bool) { return b.window + 8, true }

func (b *boundMethod) SkipCycles(from, to int64) { b.cycles += to - from }

// boundField escapes through a field directive: score only changes while
// NextEvent pins the event to now, so no skipped span straddles an update.
type boundField struct {
	cycles int64
	//lbvet:eventbound only decays while NextEvent pins the event to now (fixture)
	score float64
}

func (b *boundField) OnCycle(int64) {
	b.cycles++
	b.score *= 0.5
}

func (b *boundField) NextEvent(now int64) (int64, bool) { return now, true }

func (b *boundField) SkipCycles(from, to int64) { b.cycles += to - from }

// closed reproduces every per-cycle write in closed form: clean.
type closed struct {
	cycles int64
	busy   int64
}

func (c *closed) OnCycle(int64) { c.cycles++; c.busy++ }

func (c *closed) NextEvent(now int64) (int64, bool) { return now + 1, true }

func (c *closed) SkipCycles(from, to int64) {
	span := to - from
	c.cycles += span
	c.busy += span
}

// tickedQueue covers the TickEach/Skip pair the engine queues use.
type tickedQueue struct {
	tokens float64
	heads  int
}

func (q *tickedQueue) TickEach(cycle int64, fn func(int64)) {
	q.tokens++
	q.heads++ // want `tickedQueue.TickEach writes field "heads" but Skip does not reproduce it`
}

func (q *tickedQueue) NextEvent(now int64) (int64, bool) { return now + 1, true }

func (q *tickedQueue) Skip(from, to int64) { q.tokens += float64(to - from) }

// opaque overwrites the whole receiver, which no field set can close over.
type opaque struct {
	cycles int64
}

func (o *opaque) OnCycle(int64) { // want `opaque.OnCycle writes through the whole receiver`
	*o = opaque{cycles: o.cycles + 1}
}

func (o *opaque) NextEvent(now int64) (int64, bool) { return now + 1, true }

func (o *opaque) SkipCycles(from, to int64) { o.cycles += to - from }

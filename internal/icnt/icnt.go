// Package icnt models the on-chip interconnect between the SMs and the
// shared L2 as fixed-latency, bandwidth-capped delay queues. One Link is a
// unidirectional pipe; the GPU uses one per direction.
package icnt

import (
	"github.com/linebacker-sim/linebacker/internal/memtypes"
)

type entry struct {
	req   *memtypes.Request
	ready int64
	seq   int64
}

// less orders entries by readiness cycle, then injection order. seq is
// unique per link, so the order is total and delivery is deterministic no
// matter how the heap happens to be shaped.
func (e entry) less(o entry) bool {
	if e.ready != o.ready {
		return e.ready < o.ready
	}
	return e.seq < o.seq
}

// Link is a unidirectional, fixed-latency, bounded-throughput pipe.
//
// The in-flight set is a hand-rolled binary min-heap over a plain []entry.
// container/heap would box every entry into an interface on Push — one heap
// allocation per traversing request — where this version reuses the backing
// array forever: steady-state Send/Deliver is allocation-free.
type Link struct {
	latency  int64
	perCycle int
	q        []entry
	seq      int64

	// Sent counts requests accepted; Delivered counts requests handed out.
	Sent      int64
	Delivered int64
}

// New builds a link with the given traversal latency (cycles) and maximum
// deliveries per cycle.
func New(latency int64, perCycle int) *Link {
	if latency < 0 || perCycle <= 0 {
		panic("icnt: invalid link parameters")
	}
	return &Link{latency: latency, perCycle: perCycle}
}

// Send injects a request at the given cycle.
func (l *Link) Send(req *memtypes.Request, cycle int64) {
	l.seq++
	l.q = append(l.q, entry{req: req, ready: cycle + l.latency, seq: l.seq})
	l.up(len(l.q) - 1)
	l.Sent++
}

// DeliverEach hands up to perCycle requests whose traversal has completed
// by the given cycle to fn, in FIFO order of readiness. This is the
// engine-facing path: it allocates nothing.
func (l *Link) DeliverEach(cycle int64, fn func(*memtypes.Request)) {
	for n := 0; n < l.perCycle && len(l.q) > 0 && l.q[0].ready <= cycle; n++ {
		req := l.q[0].req
		l.popRoot()
		l.Delivered++
		fn(req)
	}
}

// Deliver returns up to perCycle requests whose traversal has completed by
// the given cycle, in FIFO order of readiness. Convenience wrapper over
// DeliverEach for tests and tools; the returned slice is freshly allocated.
func (l *Link) Deliver(cycle int64) []*memtypes.Request {
	var out []*memtypes.Request
	l.DeliverEach(cycle, func(req *memtypes.Request) { out = append(out, req) })
	return out
}

// Pending returns the number of in-flight requests.
func (l *Link) Pending() int { return len(l.q) }

// ForEach visits every in-flight request in unspecified order. Used by the
// invariant checker to take a census of the memory system; fn must not
// mutate the link.
func (l *Link) ForEach(fn func(*memtypes.Request)) {
	for i := range l.q {
		fn(l.q[i].req)
	}
}

// up restores the heap property from leaf i towards the root.
func (l *Link) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !l.q[i].less(l.q[parent]) {
			return
		}
		l.q[i], l.q[parent] = l.q[parent], l.q[i]
		i = parent
	}
}

// popRoot removes the minimum entry, shrinking the backing array in place.
func (l *Link) popRoot() {
	n := len(l.q) - 1
	l.q[0] = l.q[n]
	l.q[n] = entry{} // drop the request pointer
	l.q = l.q[:n]
	l.down(0)
}

// down restores the heap property from the root towards the leaves.
func (l *Link) down(i int) {
	n := len(l.q)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		least := left
		if right := left + 1; right < n && l.q[right].less(l.q[left]) {
			least = right
		}
		if !l.q[least].less(l.q[i]) {
			return
		}
		l.q[i], l.q[least] = l.q[least], l.q[i]
		i = least
	}
}

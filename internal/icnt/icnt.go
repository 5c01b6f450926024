// Package icnt models the on-chip interconnect between the SMs and the
// shared L2 as fixed-latency, bandwidth-capped delay queues. One Link is a
// unidirectional pipe; the GPU uses one per direction.
package icnt

import (
	"math"

	"github.com/linebacker-sim/linebacker/internal/memtypes"
	"github.com/linebacker-sim/linebacker/internal/ring"
)

type entry struct {
	req   *memtypes.Request
	ready int64
	seq   int64
}

// less orders entries by readiness cycle, then injection order. seq is
// unique per link, so the order is total and delivery is deterministic no
// matter how the entries happen to be stored.
func (e entry) less(o entry) bool {
	if e.ready != o.ready {
		return e.ready < o.ready
	}
	return e.seq < o.seq
}

// Link is a unidirectional, fixed-latency, bounded-throughput pipe.
//
// The in-flight set is a few FIFO lanes, each sorted by (ready, seq), so
// the next delivery is the least of the lane heads. Send appends best-fit:
// to the lane whose tail is the latest one not after the new entry, and
// opens a lane only when none fits. This is patience sorting, so the lane
// count never exceeds the number of monotone streams the sender
// interleaves: one for a link every send of which is cycle+latency, two
// when a second stream is sent ahead of the first (L2 hits and DRAM
// completions on the response link). The lanes are ring buffers that keep
// their backing arrays, so steady-state Send/Deliver is allocation-free,
// and Reset keeps the lanes a link has opened for its next run.
type Link struct {
	latency  int64
	perCycle int
	lanes    []ring.Buffer[entry]
	seq      int64

	// Sent counts requests accepted; Delivered counts requests handed out.
	Sent      int64
	Delivered int64
}

// New builds a link with the given traversal latency (cycles) and maximum
// deliveries per cycle.
func New(latency int64, perCycle int) *Link {
	l := &Link{}
	l.Reset(latency, perCycle)
	return l
}

// Reset makes l the empty link New builds for the parameters: nothing in
// flight, no lane open, zero counters and sequence. The lanes it had
// opened stay behind the slice's length with their backing arrays, and
// Send reopens them before it appends a new one.
func (l *Link) Reset(latency int64, perCycle int) {
	if latency < 0 || perCycle <= 0 {
		panic("icnt: invalid link parameters")
	}
	lanes := l.lanes[:cap(l.lanes)]
	for i := range lanes {
		lanes[i].Reset()
	}
	*l = Link{latency: latency, perCycle: perCycle, lanes: lanes[:0]}
}

// Send injects a request at the given cycle.
func (l *Link) Send(req *memtypes.Request, cycle int64) {
	l.seq++
	e := entry{req: req, ready: cycle + l.latency, seq: l.seq}
	// Best fit: the lane with the latest tail at or before e (seq grows,
	// so e sorts after an equal-ready tail). An empty lane fits anything
	// and is the worst fit; a new lane opens only when no lane fits.
	fit, fitTail := -1, int64(math.MinInt64)
	for i := range l.lanes {
		tail := int64(math.MinInt64)
		if ln := &l.lanes[i]; ln.Len() > 0 {
			tail = ln.At(ln.Len() - 1).ready
		}
		if tail <= e.ready && (fit < 0 || tail > fitTail) {
			fit, fitTail = i, tail
		}
	}
	if fit < 0 {
		fit = len(l.lanes)
		if fit < cap(l.lanes) {
			l.lanes = l.lanes[:fit+1] // an empty lane a Reset kept
		} else {
			l.lanes = append(l.lanes, ring.Buffer[entry]{})
		}
	}
	l.lanes[fit].Push(e)
	l.Sent++
}

// DeliverEach hands up to perCycle requests whose traversal has completed
// by the given cycle to fn, in FIFO order of readiness. It allocates
// nothing.
func (l *Link) DeliverEach(cycle int64, fn func(*memtypes.Request)) {
	for n := 0; n < l.perCycle; n++ {
		first := -1
		for i := range l.lanes {
			if l.lanes[i].Len() > 0 && (first < 0 || l.lanes[i].Front().less(l.lanes[first].Front())) {
				first = i
			}
		}
		if first < 0 || l.lanes[first].Front().ready > cycle {
			return
		}
		req := l.lanes[first].Pop().req
		l.Delivered++
		fn(req)
	}
}

// Pending returns the number of in-flight requests.
func (l *Link) Pending() int {
	n := 0
	for i := range l.lanes {
		n += l.lanes[i].Len()
	}
	return n
}

// ForEach visits every in-flight request in unspecified order. Used by the
// invariant checker to take a census of the memory system; fn must not
// mutate the link.
func (l *Link) ForEach(fn func(*memtypes.Request)) {
	for i := range l.lanes {
		ln := &l.lanes[i]
		for j := 0; j < ln.Len(); j++ {
			fn(ln.At(j).req)
		}
	}
}

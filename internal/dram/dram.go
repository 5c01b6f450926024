// Package dram models the off-chip DRAM of Table 1: multiple channels of
// banks with open-row timing (RCD/RP/RC/CL/WR/RAS in core cycles) under an
// aggregate bandwidth cap of 352.5 GB/s. Scheduling is FR-FCFS-lite: within
// a channel, the oldest row-hit request is served before older row-misses.
//
// The model is line-granular (128 B per request) and driven by Tick once per
// core cycle.
package dram

import (
	"github.com/linebacker-sim/linebacker/internal/config"
	"github.com/linebacker-sim/linebacker/internal/memtypes"
)

const rowBytes = 2048 // open-row (page) size

// Stats aggregates DRAM traffic.
type Stats struct {
	Reads           int64
	Writes          int64
	BytesRead       int64
	BytesWritten    int64
	RegBackupBytes  int64 // subset: Linebacker register backup writes
	RegRestoreBytes int64 // subset: Linebacker register restore reads
	RowHits         int64
	RowMisses       int64
	// BusyCycles counts cycles in which at least one request was in service.
	BusyCycles int64
}

// TotalBytes returns all off-chip traffic in bytes.
func (s *Stats) TotalBytes() int64 { return s.BytesRead + s.BytesWritten }

type bank struct {
	openRow   int64
	rowValid  bool
	readyAt   int64 // earliest cycle the bank can start a new access
	lastActAt int64 // cycle of last activate, for tRC
}

type pending struct {
	req  *memtypes.Request
	done int64
}

// qent is one transaction-queue entry. The bank/row decomposition of the
// line address is immutable, so it is computed once at Enqueue instead of
// by every FR-FCFS window scan (the div/mod chain in bankOf was the
// scheduler's dominant cost under congestion).
type qent struct {
	req  *memtypes.Request
	bank int // global bank index: ch*perChan + bk
	row  int64
}

// less orders completions by done cycle. Deliberately the exact comparator
// the previous container/heap version used — done-cycle ties resolve by
// heap layout, and the sift algorithms below replicate container/heap's
// step for step, so completion order (and therefore every downstream
// metric) is bit-identical to the old implementation. What changed is cost:
// container/heap boxed every entry into an interface on Push — one heap
// allocation per scheduled request — where this version reuses the backing
// array forever.
func (p pending) less(o pending) bool { return p.done < o.done }

// doneHeap is a hand-rolled binary min-heap of in-service requests.
type doneHeap []pending

func (h doneHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].less(h[parent]) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (h *doneHeap) popRoot() pending {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = pending{}
	q = q[:n]
	*h = q
	// Sift the relocated root down.
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		least := left
		if right := left + 1; right < n && q[right].less(q[left]) {
			least = right
		}
		if !q[least].less(q[i]) {
			break
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
	return top
}

// DRAM is the off-chip memory model.
type DRAM struct {
	timing   config.DRAMTiming
	channels int
	banks    []bank // channels * banksPerChan
	perChan  int

	// queues holds one FIFO per channel as a head-indexed slice: heads[ch]
	// is the index of the oldest waiting entry in queues[ch]. Dequeues from
	// the FR-FCFS window shift at most window-1 entries and advance the
	// head; consumed prefixes are compacted away once they dominate the
	// backing array, keeping both enqueue and dequeue amortised O(1). (The
	// previous splice-on-dequeue copied the whole tail — quadratic once a
	// congested run built up a six-figure queue.)
	queues [][]qent
	heads  []int

	// chWake[ch] is a cycle before which channel ch's window holds no
	// ready bank: a window scan that finds none (with tokens to spare)
	// records the window's earliest bank readyAt, and schedule returns
	// without scanning until then. It is exact because a channel's
	// banks are written only by its own schedule and its window changes
	// only by an Enqueue (which resets the bound to 0) or by its own
	// dequeue. An engine cache, not simulated state: the state fingerprints
	// ignore it.
	chWake []int64

	bytesPerCycle float64
	tokens        float64
	maxTokens     float64

	// inflight holds the scheduled requests until their done cycle.
	inflight doneHeap

	// stalled freezes the model (chaos injection): Tick neither schedules
	// nor completes requests, so every dependent warp livelocks.
	stalled bool

	Stats Stats
}

// New builds the DRAM model from the GPU configuration.
func New(g *config.GPU) *DRAM {
	d := &DRAM{
		timing:        g.DRAM,
		channels:      g.DRAMChannels,
		perChan:       g.DRAMBanksPerChan,
		banks:         make([]bank, g.DRAMChannels*g.DRAMBanksPerChan),
		queues:        make([][]qent, g.DRAMChannels),
		heads:         make([]int, g.DRAMChannels),
		chWake:        make([]int64, g.DRAMChannels),
		bytesPerCycle: g.BytesPerCycle(),
	}
	d.maxTokens = d.bytesPerCycle * 4 // small burst window
	return d
}

// channelOf maps a line to a channel by low-order line bits (interleaved).
func (d *DRAM) channelOf(l memtypes.LineAddr) int {
	return int((uint64(l) / memtypes.LineSize) % uint64(d.channels))
}

func (d *DRAM) bankOf(l memtypes.LineAddr) (ch, bk int, row int64) {
	ch = d.channelOf(l)
	lineNo := uint64(l) / memtypes.LineSize
	bk = int((lineNo / uint64(d.channels)) % uint64(d.perChan))
	row = int64(uint64(l) / rowBytes / uint64(d.channels*d.perChan))
	return ch, bk, row
}

// Enqueue accepts a line request. The caller keeps ownership of req; the
// same pointer is surfaced by Tick when service completes.
func (d *DRAM) Enqueue(req *memtypes.Request) {
	ch, bk, row := d.bankOf(req.Line)
	d.queues[ch] = append(d.queues[ch], qent{req: req, bank: ch*d.perChan + bk, row: row})
	d.chWake[ch] = 0
}

// waiting returns channel ch's live FIFO (oldest first).
func (d *DRAM) waiting(ch int) []qent { return d.queues[ch][d.heads[ch]:] }

// compact drops channel ch's consumed prefix once it dominates the backing
// array, bounding memory and keeping the head index small. Amortised O(1)
// per dequeue.
func (d *DRAM) compact(ch int) {
	h := d.heads[ch]
	buf := d.queues[ch]
	if h < 1024 || h*2 < len(buf) {
		return
	}
	n := copy(buf, buf[h:])
	tail := buf[n:]
	for i := range tail {
		tail[i] = qent{} // release retired *Request pointers
	}
	d.queues[ch] = buf[:n]
	d.heads[ch] = 0
}

// QueueLen returns the number of waiting (unscheduled) requests.
func (d *DRAM) QueueLen() int {
	n := 0
	for ch := range d.queues {
		n += len(d.queues[ch]) - d.heads[ch]
	}
	return n
}

// Inflight returns the number of scheduled but not yet completed requests.
func (d *DRAM) Inflight() int { return len(d.inflight) }

// ForEach visits every queued and in-service request in unspecified order.
// Used by the invariant checker; fn must not mutate the model.
func (d *DRAM) ForEach(fn func(*memtypes.Request)) {
	for ch := range d.queues {
		for _, e := range d.waiting(ch) {
			fn(e.req)
		}
	}
	for i := range d.inflight {
		fn(d.inflight[i].req)
	}
}

// SetStalled freezes (or thaws) the model. Used by the chaos injector to
// provoke a livelock: queued and in-flight requests are retained but make
// no progress while stalled.
func (d *DRAM) SetStalled(s bool) { d.stalled = s }

// Stalled reports whether the model is frozen.
func (d *DRAM) Stalled() bool { return d.stalled }

// TickEach advances one core cycle and hands every request whose data
// transfer completes at this cycle to fn, in completion order. This is the
// engine-facing path: it allocates nothing.
func (d *DRAM) TickEach(cycle int64, fn func(*memtypes.Request)) {
	if d.stalled {
		return
	}
	d.tokens += d.bytesPerCycle
	if d.tokens > d.maxTokens {
		d.tokens = d.maxTokens
	}
	// Schedule new work per channel.
	for ch := 0; ch < d.channels; ch++ {
		d.schedule(ch, cycle)
	}
	if len(d.inflight) > 0 {
		d.Stats.BusyCycles++
	}
	for len(d.inflight) > 0 && d.inflight[0].done <= cycle {
		fn(d.inflight.popRoot().req)
	}
}

// Tick advances one core cycle and returns the requests whose data transfer
// completes at this cycle. Convenience wrapper over TickEach for tests and
// tools; the returned slice is freshly allocated.
func (d *DRAM) Tick(cycle int64) []*memtypes.Request {
	var out []*memtypes.Request
	d.TickEach(cycle, func(req *memtypes.Request) { out = append(out, req) })
	return out
}

// schedWindow is how many of a channel's oldest queued requests the
// FR-FCFS scheduler considers each cycle.
const schedWindow = 16

// schedule starts at most one request on the channel this cycle (the data
// bus is shared), preferring the oldest row hit (FR-FCFS-lite). A scan that
// finds no ready bank records the channel's chWake bound instead, an engine
// cache whose answers equal the scan's.
func (d *DRAM) schedule(ch int, cycle int64) {
	if cycle < d.chWake[ch] {
		return
	}
	q := d.waiting(ch)
	if len(q) == 0 || d.tokens < memtypes.LineSize {
		return
	}
	// The scheduler inspects a bounded window of the queue head (a real
	// controller's transaction queue is finite); this also bounds the
	// per-cycle cost under heavy congestion.
	window := min(len(q), schedWindow)
	pick := -1
	// First pass: oldest row hit on a ready bank.
	for i := range q[:window] {
		e := &q[i]
		b := &d.banks[e.bank]
		if b.readyAt <= cycle && b.rowValid && b.openRow == e.row {
			pick = i
			break
		}
	}
	if pick < 0 {
		// Second pass: oldest request on a ready bank; failing that, the
		// earliest cycle one of the window's banks is ready.
		wake := d.banks[q[0].bank].readyAt
		for i := range q[:window] {
			r := d.banks[q[i].bank].readyAt
			if r <= cycle {
				pick = i
				break
			}
			wake = min(wake, r)
		}
		if pick < 0 {
			d.chWake[ch] = wake
			return
		}
	}
	req, row := q[pick].req, q[pick].row
	b := &d.banks[q[pick].bank]
	// Dequeue q[pick] preserving FIFO order: shift the older prefix right
	// one slot (at most window-1 entries) and advance the head.
	copy(q[1:pick+1], q[:pick])
	q[0] = qent{}
	d.heads[ch]++
	d.compact(ch)

	t := &d.timing
	var lat float64
	switch {
	case b.rowValid && b.openRow == row:
		lat = t.CL
		d.Stats.RowHits++
	case b.rowValid:
		// Precharge + activate + CAS; honour tRC between activates.
		lat = t.RP + t.RCD + t.CL
		if gap := float64(cycle - b.lastActAt); gap < t.RC {
			lat += t.RC - gap
		}
		b.lastActAt = cycle + int64(t.RP)
		d.Stats.RowMisses++
	default:
		lat = t.RCD + t.CL
		b.lastActAt = cycle
		d.Stats.RowMisses++
	}
	b.openRow, b.rowValid = row, true

	write := req.Kind == memtypes.Store || req.Kind == memtypes.RegBackup
	if write {
		lat += t.WR
	}
	// Data transfer time under the aggregate bandwidth cap.
	d.tokens -= memtypes.LineSize
	xfer := float64(memtypes.LineSize) / d.bytesPerCycle * float64(d.channels)
	if xfer < 1 {
		xfer = 1
	}
	done := cycle + int64(lat+xfer)
	b.readyAt = done
	d.inflight = append(d.inflight, pending{req: req, done: done})
	d.inflight.up(len(d.inflight) - 1)

	if write {
		d.Stats.Writes++
		d.Stats.BytesWritten += memtypes.LineSize
		if req.Kind == memtypes.RegBackup {
			d.Stats.RegBackupBytes += memtypes.LineSize
		}
	} else {
		d.Stats.Reads++
		d.Stats.BytesRead += memtypes.LineSize
		if req.Kind == memtypes.RegRestore {
			d.Stats.RegRestoreBytes += memtypes.LineSize
		}
	}
}

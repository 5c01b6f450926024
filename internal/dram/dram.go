// Package dram models the off-chip DRAM of Table 1: multiple channels of
// banks with open-row timing (RCD/RP/RC/CL/WR in core cycles) under an
// aggregate bandwidth cap of 352.5 GB/s. Table 1's tRRD and tRAS are not
// modelled (DESIGN.md §4). Scheduling is FR-FCFS-lite: within a channel,
// the oldest row-hit request is served before older row-misses. A
// channel's transaction queue is unbounded and holds reads and writes in
// one FIFO, with no priority for reads.
//
// The model is line-granular (128 B per request) and driven by Tick once per
// core cycle.
package dram

import (
	"github.com/linebacker-sim/linebacker/internal/config"
	"github.com/linebacker-sim/linebacker/internal/memtypes"
	"github.com/linebacker-sim/linebacker/internal/ring"
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

// pending is one access in service; req is nil for a writeback.
type pending struct {
	req  *memtypes.Request
	done int64
}

// qent is one scheduling-window entry; req is nil for a writeback. The
// bank/row decomposition of the line address is immutable, so it is
// computed once, when the entry enters the window, instead of by every
// FR-FCFS window scan (the div/mod chain in bankOf was the scheduler's
// dominant cost under congestion).
type qent struct {
	req  *memtypes.Request
	bank int // global bank index: ch*perChan + bk
	row  int64
}

// bent is one backlog entry: the line and, except for a writeback, its
// request. 16 bytes, so a store-bound kernel's backlog of hundreds of
// thousands of writebacks costs what its lines and pointers do.
type bent struct {
	req  *memtypes.Request
	line memtypes.LineAddr
}

// blockLen is the number of entries in one backlog block: 4080 bytes, so
// a block and the allocator's 8-byte header for a pointerful object fill
// one 4 KiB size class (256 entries would take the 4864-byte class).
const blockLen = 255

// block is a fixed-size run of backlog entries.
type block [blockLen]bent

// chanQueue is one channel's transaction queue, oldest first: the
// scheduling window, which holds the oldest min(len, schedWindow) entries
// by value with their banks and rows decoded, then the backlog. The
// backlog is non-empty only while the window is full, so the window is
// always the queue's head.
type chanQueue struct {
	win  [schedWindow]qent
	nwin int
	back backlog
}

// backlog is a FIFO of entries in fixed-size blocks. A block goes back
// to the free list once the head has passed it and is reused before a new
// one is allocated, so a backlog allocates its peak once and never copies
// an entry.
type backlog struct {
	blocks ring.Buffer[*block] // oldest first
	head   int                 // index of the oldest entry in blocks.Front()
	n      int
	free   []*block
}

// at returns the i-th entry from the front (0 = front).
func (b *backlog) at(i int) bent {
	i += b.head
	return b.blocks.At(i / blockLen)[i%blockLen]
}

// push appends e to the back.
func (b *backlog) push(e bent) {
	i := b.head + b.n
	if i == b.blocks.Len()*blockLen {
		if k := len(b.free) - 1; k >= 0 {
			b.blocks.Push(b.free[k])
			b.free = b.free[:k]
		} else {
			b.blocks.Push(new(block))
		}
	}
	b.blocks.At(i / blockLen)[i%blockLen] = e
	b.n++
}

// reset empties the backlog and moves every block to the free list,
// zeroing the entries it drops (passed entries are already zero).
func (b *backlog) reset() {
	for b.blocks.Len() > 0 {
		blk := b.blocks.Pop()
		clear(blk[:])
		b.free = append(b.free, blk)
	}
	b.head, b.n = 0, 0
}

// pop removes and returns the front entry; the backlog must not be empty.
func (b *backlog) pop() bent {
	blk := b.blocks.Front()
	e := blk[b.head]
	blk[b.head] = bent{}
	b.head++
	b.n--
	if b.head == blockLen {
		b.free = append(b.free, b.blocks.Pop())
		b.head = 0
	}
	return e
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

	// queues holds each channel's transaction queue, oldest first. The
	// FR-FCFS scan reads only the window, a fixed array, and a store-bound
	// kernel's growing writeback backlog costs 16 bytes per entry and one
	// allocation per block.
	queues []chanQueue

	// chWake[ch] is a cycle before which channel ch's window holds no
	// ready bank: a window scan that finds none (with tokens to spare)
	// records the window's earliest bank readyAt, and schedule returns
	// without scanning until then. It is exact because a channel's
	// banks are written only by its own schedule, and its window changes
	// only by an enqueue that lands inside it (which lowers the bound to
	// the new entry's bank readyAt) or by its own dequeue, which needs a
	// ready bank. An engine cache, not simulated state: the state
	// fingerprints ignore it.
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
	d := &DRAM{}
	d.Reset(g)
	return d
}

// Reset makes d the model New builds for g: idle banks, empty queues,
// nothing in service, zero counters, not stalled. It keeps its arrays
// where they are large enough, and every channel keeps its backlog's
// blocks on its free list, so a re-armed DRAM allocates only past the
// largest backlog a channel has held.
func (d *DRAM) Reset(g *config.GPU) {
	queues := d.queues[:cap(d.queues)]
	for ch := range queues {
		q := &queues[ch]
		clear(q.win[:q.nwin])
		q.nwin = 0
		q.back.reset()
	}
	if n := g.DRAMChannels - len(queues); n > 0 {
		queues = append(queues, make([]chanQueue, n)...)
	}
	clear(d.inflight)
	*d = DRAM{
		timing:        g.DRAM,
		channels:      g.DRAMChannels,
		perChan:       g.DRAMBanksPerChan,
		banks:         memtypes.Reslice(d.banks, g.DRAMChannels*g.DRAMBanksPerChan),
		queues:        queues[:g.DRAMChannels],
		chWake:        memtypes.Reslice(d.chWake, g.DRAMChannels),
		bytesPerCycle: g.BytesPerCycle(),
		inflight:      d.inflight[:0],
	}
	d.maxTokens = d.bytesPerCycle * 4 // small burst window
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
func (d *DRAM) Enqueue(req *memtypes.Request) { d.enqueue(req.Line, req) }

// EnqueueWriteback queues a dirty L2 eviction of line. It is timed and
// counted as a write, like a Store request, but carries no Request: nothing
// waits for it, so its completion delivers nothing.
func (d *DRAM) EnqueueWriteback(line memtypes.LineAddr) { d.enqueue(line, nil) }

func (d *DRAM) enqueue(line memtypes.LineAddr, req *memtypes.Request) {
	ch := d.channelOf(line)
	q := &d.queues[ch]
	// An entry past the window cannot change the scan until a dequeue,
	// which needs a scan first, moves it in.
	if q.nwin < schedWindow {
		e := d.decode(req, line)
		q.win[q.nwin] = e
		q.nwin++
		d.chWake[ch] = min(d.chWake[ch], d.banks[e.bank].readyAt)
		return
	}
	q.back.push(bent{req: req, line: line})
}

// decode returns the window entry of line's access.
func (d *DRAM) decode(req *memtypes.Request, line memtypes.LineAddr) qent {
	ch, bk, row := d.bankOf(line)
	return qent{req: req, bank: ch*d.perChan + bk, row: row}
}

// QueueLen returns the number of waiting (unscheduled) entries,
// writebacks included.
func (d *DRAM) QueueLen() int {
	n := 0
	for ch := range d.queues {
		n += d.queues[ch].nwin + d.queues[ch].back.n
	}
	return n
}

// Inflight returns the number of scheduled but not yet completed entries,
// writebacks included.
func (d *DRAM) Inflight() int { return len(d.inflight) }

// ForEach visits every queued and in-service request: each channel's
// queue in FIFO order (window, then backlog), then the requests in
// service. Writebacks carry none and are not visited. Used by the
// invariant checker; fn must not mutate the model.
func (d *DRAM) ForEach(fn func(*memtypes.Request)) {
	for ch := range d.queues {
		q := &d.queues[ch]
		for _, e := range q.win[:q.nwin] {
			if e.req != nil {
				fn(e.req)
			}
		}
		for i := range q.back.n {
			if e := q.back.at(i); e.req != nil {
				fn(e.req)
			}
		}
	}
	for i := range d.inflight {
		if req := d.inflight[i].req; req != nil {
			fn(req)
		}
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
	// Schedule new work per channel. Starting a transfer spends a line of
	// tokens and nothing refills them within the cycle, so the loop stops
	// once a line no longer fits.
	for ch := 0; ch < d.channels && d.tokens >= memtypes.LineSize; ch++ {
		d.schedule(ch, cycle)
	}
	if len(d.inflight) > 0 {
		d.Stats.BusyCycles++
	}
	for len(d.inflight) > 0 && d.inflight[0].done <= cycle {
		if req := d.inflight.popRoot().req; req != nil {
			fn(req)
		}
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
// cache whose answers equal the scan's. TickEach calls it only while a
// line's worth of tokens is left.
func (d *DRAM) schedule(ch int, cycle int64) {
	if cycle < d.chWake[ch] {
		return
	}
	q := &d.queues[ch]
	if q.nwin == 0 {
		return
	}
	// The scheduler inspects a bounded window of the queue head (a real
	// controller's transaction queue is finite); this also bounds the
	// per-cycle cost under heavy congestion. One pass finds the oldest row
	// hit on a ready bank, else the oldest entry on a ready bank, else the
	// earliest cycle one of the window's banks is ready.
	win := q.win[:q.nwin]
	hit, ready := -1, -1
	wake := d.banks[win[0].bank].readyAt
	for i := range win {
		e := &win[i]
		b := &d.banks[e.bank]
		if b.readyAt > cycle {
			wake = min(wake, b.readyAt)
			continue
		}
		if b.rowValid && b.openRow == e.row {
			hit = i
			break
		}
		if ready < 0 {
			ready = i
		}
	}
	pick := hit
	if pick < 0 {
		pick = ready
	}
	if pick < 0 {
		d.chWake[ch] = wake
		return
	}
	// Close the gap in FIFO order and move the backlog's oldest entry in.
	e := win[pick]
	copy(win[pick:], win[pick+1:])
	q.nwin--
	if q.back.n > 0 {
		b := q.back.pop()
		win[q.nwin] = d.decode(b.req, b.line)
		q.nwin++
	} else {
		win[q.nwin] = qent{}
	}
	d.start(e, cycle)
}

// start puts the window entry e in service at the cycle: bank timing, the
// bandwidth cap and the traffic counters.
func (d *DRAM) start(e qent, cycle int64) {
	req, row := e.req, e.row
	b := &d.banks[e.bank]

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

	write := req == nil || req.Kind == memtypes.Store || req.Kind == memtypes.RegBackup
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
		if req != nil && req.Kind == memtypes.RegBackup {
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

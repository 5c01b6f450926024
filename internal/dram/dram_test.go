package dram

import (
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"github.com/linebacker-sim/linebacker/internal/config"
	"github.com/linebacker-sim/linebacker/internal/memtypes"
)

func newDRAM() *DRAM {
	cfg := config.Default()
	return New(&cfg.GPU)
}

// drain runs Tick until n responses arrive or the cycle budget is exhausted.
func drain(d *DRAM, n int, budget int64) ([]*memtypes.Request, int64) {
	var out []*memtypes.Request
	var cyc int64
	for cyc = 0; cyc < budget && len(out) < n; cyc++ {
		out = append(out, d.Tick(cyc)...)
	}
	return out, cyc
}

func TestSingleReadCompletes(t *testing.T) {
	d := newDRAM()
	req := &memtypes.Request{Line: 0, Kind: memtypes.Load}
	d.Enqueue(req)
	got, cyc := drain(d, 1, 10000)
	if len(got) != 1 || got[0] != req {
		t.Fatalf("got %d responses", len(got))
	}
	if cyc < 10 {
		t.Fatalf("read completed after %d cycles; DRAM should cost tens of cycles", cyc)
	}
	if d.Stats.Reads != 1 || d.Stats.BytesRead != 128 {
		t.Fatalf("stats = %+v", d.Stats)
	}
}

func TestRowHitClassification(t *testing.T) {
	d := newDRAM()
	l0 := memtypes.LineAddr(0)
	d.Enqueue(&memtypes.Request{Line: l0, Kind: memtypes.Load})
	drain(d, 1, 10000)
	if d.Stats.RowMisses != 1 {
		t.Fatalf("first access should be a row miss: %+v", d.Stats)
	}
	// Re-access the same line: open-row hit, must not add a RowMiss.
	d.Enqueue(&memtypes.Request{Line: l0, Kind: memtypes.Load})
	drain2 := func() { // continue the timeline past the first drain
		for cyc := int64(10000); cyc < 30000; cyc++ {
			if len(d.Tick(cyc)) > 0 {
				return
			}
		}
	}
	drain2()
	if d.Stats.RowHits != 1 || d.Stats.RowMisses != 1 {
		t.Fatalf("second access should be a row hit: %+v", d.Stats)
	}
}

func TestWriteCountsAndBackupTagging(t *testing.T) {
	d := newDRAM()
	d.Enqueue(&memtypes.Request{Line: 0, Kind: memtypes.RegBackup})
	d.Enqueue(&memtypes.Request{Line: 128, Kind: memtypes.Store})
	d.Enqueue(&memtypes.Request{Line: 256, Kind: memtypes.RegRestore})
	d.EnqueueWriteback(384)
	visited := 0
	d.ForEach(func(*memtypes.Request) { visited++ })
	if d.QueueLen() != 4 || visited != 3 {
		t.Fatalf("QueueLen %d and %d requests visited, want 4 queued and the 3 requests visited", d.QueueLen(), visited)
	}
	var got []*memtypes.Request
	for cyc := int64(0); cyc < 100000 && d.QueueLen()+d.Inflight() > 0; cyc++ {
		got = append(got, d.Tick(cyc)...)
	}
	if len(got) != 3 || d.QueueLen()+d.Inflight() != 0 {
		t.Fatalf("delivered %d/3 requests; %d queued, %d in service", len(got), d.QueueLen(), d.Inflight())
	}
	if d.Stats.Writes != 3 || d.Stats.Reads != 1 {
		t.Fatalf("stats = %+v", d.Stats)
	}
	if d.Stats.RegBackupBytes != 128 || d.Stats.RegRestoreBytes != 128 {
		t.Fatalf("backup/restore bytes = %d/%d", d.Stats.RegBackupBytes, d.Stats.RegRestoreBytes)
	}
	if d.Stats.TotalBytes() != 4*128 {
		t.Fatalf("total bytes = %d", d.Stats.TotalBytes())
	}
}

// TestWritebackTimedAsStore checks that a writeback, which carries no
// Request, costs the DRAM exactly what a Store request to the same line
// does: the same service time, bank state and counters.
func TestWritebackTimedAsStore(t *testing.T) {
	store, wb := newDRAM(), newDRAM()
	const line = memtypes.LineAddr(5 * memtypes.LineSize)
	store.Enqueue(&memtypes.Request{Line: line, Kind: memtypes.Store})
	wb.EnqueueWriteback(line)
	for cyc := int64(0); cyc < 10000; cyc++ {
		store.Tick(cyc)
		if n := len(wb.Tick(cyc)); n != 0 {
			t.Fatalf("cycle %d: a writeback delivered %d requests", cyc, n)
		}
		if store.Inflight() != wb.Inflight() || store.QueueLen() != wb.QueueLen() {
			t.Fatalf("cycle %d: the store and the writeback are out of step", cyc)
		}
	}
	if store.Stats != wb.Stats || store.Stats.Writes != 1 {
		t.Fatalf("writeback stats %+v, store stats %+v", wb.Stats, store.Stats)
	}
	for i := range store.banks {
		if store.banks[i] != wb.banks[i] {
			t.Fatalf("bank %d: writeback left %+v, store %+v", i, wb.banks[i], store.banks[i])
		}
	}
}

func TestBandwidthCapLimitsThroughput(t *testing.T) {
	d := newDRAM()
	const n = 2000
	for i := 0; i < n; i++ {
		d.Enqueue(&memtypes.Request{Line: memtypes.LineAddr(i * memtypes.LineSize), Kind: memtypes.Load})
	}
	got, cycles := drain(d, n, 1_000_000)
	if len(got) != n {
		t.Fatalf("completed %d/%d in budget", len(got), n)
	}
	gotBW := float64(n*128) / float64(cycles)
	cfg := config.Default()
	capBW := cfg.GPU.BytesPerCycle()
	if gotBW > capBW*1.05 {
		t.Fatalf("achieved %.1f B/cyc exceeds cap %.1f", gotBW, capBW)
	}
	// Streaming reads should still achieve a solid fraction of peak.
	if gotBW < capBW*0.3 {
		t.Fatalf("achieved only %.1f B/cyc of %.1f cap; scheduler too weak", gotBW, capBW)
	}
}

func TestAllRequestsEventuallyComplete(t *testing.T) {
	f := func(seed uint32) bool {
		d := newDRAM()
		n := int(seed%97) + 1
		for i := 0; i < n; i++ {
			l := memtypes.LineAddr((uint64(seed)*2654435761 + uint64(i)*7919) % (1 << 24) * memtypes.LineSize)
			k := memtypes.Load
			if i%3 == 0 {
				k = memtypes.Store
			}
			d.Enqueue(&memtypes.Request{Line: l, Kind: k})
		}
		got, _ := drain(d, n, 2_000_000)
		return len(got) == n && d.QueueLen() == 0 && d.Inflight() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestChannelMapping(t *testing.T) {
	d := newDRAM()
	seen := map[int]bool{}
	for i := 0; i < 64; i++ {
		seen[d.channelOf(memtypes.LineAddr(i*memtypes.LineSize))] = true
	}
	if len(seen) != d.channels {
		t.Fatalf("sequential lines touch %d/%d channels", len(seen), d.channels)
	}
}

// TestChannelWakeMatchesScan drives a DRAM with seeded bursts of random
// requests and writebacks and checks every channel's bound after each
// enqueue and before each tick: while chWake lies ahead of the cycle, no
// bank in the channel's scheduling window may be ready before the bound,
// so every scan it skips would have found no ready bank. Enqueues land
// both inside the window (which lowers the bound) and past it (which
// leaves it alone). It requires the bound to skip some scans, or the check
// is vacuous.
func TestChannelWakeMatchesScan(t *testing.T) {
	d := newDRAM()
	check := func(cyc int64, after string) {
		t.Helper()
		for ch := range d.chWake {
			if cyc >= d.chWake[ch] {
				continue
			}
			q := &d.queues[ch]
			for _, e := range q.win[:q.nwin] {
				if b := e.bank; d.banks[b].readyAt < d.chWake[ch] {
					t.Fatalf("cycle %d, after %s: channel %d bound %d skips scans, but bank %d is ready at %d",
						cyc, after, ch, d.chWake[ch], b, d.banks[b].readyAt)
				}
			}
		}
	}
	rng := uint64(7)
	skipped, inside, past := 0, 0, 0
	for cyc := int64(0); cyc < 20_000; cyc++ {
		// Bursts fill the queues past the window; the lulls between them
		// drain the queues back into it.
		rate := uint64(2)
		if cyc/2000%2 == 1 {
			rate = 32
		}
		for n := 0; n < 3; n++ {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			if rng%rate != 0 {
				continue
			}
			line := memtypes.LineAddr(rng >> 20 % (1 << 24) * memtypes.LineSize)
			if rng%3 == 0 {
				d.EnqueueWriteback(line)
			} else {
				d.Enqueue(&memtypes.Request{Line: line, Kind: memtypes.Load})
			}
			if d.queues[d.channelOf(line)].back.n == 0 {
				inside++
			} else {
				past++
			}
			check(cyc, "an enqueue")
		}
		check(cyc, "the enqueues")
		for ch := range d.chWake {
			if cyc < d.chWake[ch] {
				skipped++
			}
		}
		d.Tick(cyc)
	}
	if skipped == 0 || inside == 0 || past == 0 {
		t.Fatalf("vacuous: %d channel scans skipped, %d enqueues inside the window, %d past it", skipped, inside, past)
	}
	t.Logf("%d channel scans skipped; %d enqueues inside the window, %d past it; %d reads, %d writes",
		skipped, inside, past, d.Stats.Reads, d.Stats.Writes)
}

// refDRAM is the reference the split channel queue is held to: each
// channel's queue is one slice, oldest first, and a tick scans its first
// schedWindow entries for the oldest row hit on a ready bank, else the
// oldest entry on a ready bank, and splices the pick out. It has no
// chWake bound. Bank timing, tokens and the in-service heap are those of
// a second DRAM, whose own queues stay empty.
type refDRAM struct {
	d      *DRAM
	queues [][]qent
}

func (r *refDRAM) enqueue(line memtypes.LineAddr, req *memtypes.Request) {
	ch := r.d.channelOf(line)
	r.queues[ch] = append(r.queues[ch], r.d.decode(req, line))
}

func (r *refDRAM) queueLen() int {
	n := 0
	for _, q := range r.queues {
		n += len(q)
	}
	return n
}

func (r *refDRAM) tick(cycle int64, fn func(*memtypes.Request)) {
	d := r.d
	d.tokens = min(d.tokens+d.bytesPerCycle, d.maxTokens)
	for ch, q := range r.queues {
		if d.tokens < memtypes.LineSize {
			break
		}
		pick := -1
		for i, e := range q[:min(len(q), schedWindow)] {
			b := &d.banks[e.bank]
			if b.readyAt > cycle {
				continue
			}
			if b.rowValid && b.openRow == e.row {
				pick = i
				break
			}
			if pick < 0 {
				pick = i
			}
		}
		if pick >= 0 {
			e := q[pick]
			r.queues[ch] = append(q[:pick], q[pick+1:]...)
			d.start(e, cycle)
		}
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

// forEach visits the reference's requests in DRAM.ForEach's order: each
// channel's queue oldest first, then the requests in service.
func (r *refDRAM) forEach(fn func(*memtypes.Request)) {
	for _, q := range r.queues {
		for _, e := range q {
			if e.req != nil {
				fn(e.req)
			}
		}
	}
	r.d.ForEach(fn)
}

// TestSplitQueueMatchesReference drives one DRAM with seeded bursts of
// loads, register backups and restores, and writebacks that run every
// channel's backlog several blocks deep, then lets it drain, twice, and
// holds it cycle by cycle to a slice-backed reference queue: the requests
// each cycle completes, in order, Stats, QueueLen and Inflight, and every
// 16th cycle the order ForEach visits the queued and in-service requests
// in. It requires every backlog to have gone at least three blocks deep
// and to have used no more blocks than its peak needs, so the second
// burst reused the first one's.
func TestSplitQueueMatchesReference(t *testing.T) {
	d := newDRAM()
	ref := refDRAM{d: newDRAM(), queues: make([][]qent, d.channels)}
	kinds := []memtypes.Kind{memtypes.Load, memtypes.RegBackup, memtypes.RegRestore}
	rng, stream := uint64(5), uint64(0)
	deepest := make([]int, d.channels)
	held := make([]map[*block]bool, d.channels) // every block a backlog held
	for ch := range held {
		held[ch] = map[*block]bool{}
	}
	var got, want []*memtypes.Request
	for cyc := int64(0); cyc < 40_000; cyc++ {
		// Two bursts of 5000 cycles, each followed by a drain.
		for n := 0; cyc%20_000 < 5000 && n < 4; n++ {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			// Half the lines follow one sequential stream, which hits
			// open rows; the rest scatter over 8 MB.
			lineNo := rng >> 20 % (1 << 16)
			if rng%2 == 0 {
				stream++
				lineNo = stream
			}
			line := memtypes.LineAddr(lineNo * memtypes.LineSize)
			if rng>>8%3 == 0 {
				d.EnqueueWriteback(line)
				ref.enqueue(line, nil)
				continue
			}
			req := &memtypes.Request{Line: line, Kind: kinds[rng>>12%3]}
			d.Enqueue(req)
			ref.enqueue(line, req)
		}
		got, want = got[:0], want[:0]
		d.TickEach(cyc, func(req *memtypes.Request) { got = append(got, req) })
		ref.tick(cyc, func(req *memtypes.Request) { want = append(want, req) })
		if !slices.Equal(got, want) {
			t.Fatalf("cycle %d: completed %d requests, the reference %d, or in another order", cyc, len(got), len(want))
		}
		if d.Stats != ref.d.Stats {
			t.Fatalf("cycle %d: stats %+v, reference %+v", cyc, d.Stats, ref.d.Stats)
		}
		if d.QueueLen() != ref.queueLen() || d.Inflight() != ref.d.Inflight() {
			t.Fatalf("cycle %d: %d queued and %d in service, reference %d and %d",
				cyc, d.QueueLen(), d.Inflight(), ref.queueLen(), ref.d.Inflight())
		}
		if cyc%16 == 0 {
			got, want = got[:0], want[:0]
			d.ForEach(func(req *memtypes.Request) { got = append(got, req) })
			ref.forEach(func(req *memtypes.Request) { want = append(want, req) })
			if !slices.Equal(got, want) {
				t.Fatalf("cycle %d: ForEach visits %d requests, the reference %d, or in another order", cyc, len(got), len(want))
			}
		}
		for ch := range deepest {
			b := &d.queues[ch].back
			deepest[ch] = max(deepest[ch], b.n)
			for i := range b.blocks.Len() {
				held[ch][b.blocks.At(i)] = true
			}
		}
	}
	if d.QueueLen()+d.Inflight() != 0 {
		t.Fatalf("%d entries queued and %d in service after the drain", d.QueueLen(), d.Inflight())
	}
	for ch, n := range deepest {
		if n < 3*blockLen {
			t.Fatalf("channel %d: backlog peaked at %d entries, want at least 3 blocks of %d", ch, n, blockLen)
		}
		if used, peak := len(held[ch]), (n+blockLen-1)/blockLen+1; used > peak {
			t.Fatalf("channel %d: backlog used %d blocks, but its peak of %d entries needs at most %d", ch, used, n, peak)
		}
	}
	t.Logf("backlog peaks %v entries; %d reads, %d writes, %d row hits", deepest, d.Stats.Reads, d.Stats.Writes, d.Stats.RowHits)
}

// TestBacklogCostsItsEntries queues 100 000 writebacks on one channel and
// requires the queue to allocate no more than 16 bytes per entry and one
// partly filled 4 KiB block, plus per block its 16 bytes of allocator
// header and padding and at most 32 bytes for the doubling ring of block
// pointers.
func TestBacklogCostsItsEntries(t *testing.T) {
	d := newDRAM()
	const n = 100_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range n {
		d.EnqueueWriteback(memtypes.LineAddr(i * d.channels * memtypes.LineSize))
	}
	runtime.ReadMemStats(&after)
	if q := d.queues[0].nwin + d.queues[0].back.n; q != n {
		t.Fatalf("channel 0 holds %d entries, want all %d", q, n)
	}
	got := after.TotalAlloc - before.TotalAlloc
	limit := uint64(16*n + 4096 + 48*(n/blockLen+1))
	if got > limit {
		t.Fatalf("queueing %d writebacks allocated %d bytes (%.1f per entry), limit %d", n, got, float64(got)/n, limit)
	}
	t.Logf("%d writebacks: %d bytes (%.2f per entry)", n, got, float64(got)/n)
}

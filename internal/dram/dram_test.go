package dram

import (
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
	got, _ := drain(d, 3, 100000)
	if len(got) != 3 {
		t.Fatalf("completed %d/3", len(got))
	}
	if d.Stats.Writes != 2 || d.Stats.Reads != 1 {
		t.Fatalf("stats = %+v", d.Stats)
	}
	if d.Stats.RegBackupBytes != 128 || d.Stats.RegRestoreBytes != 128 {
		t.Fatalf("backup/restore bytes = %d/%d", d.Stats.RegBackupBytes, d.Stats.RegRestoreBytes)
	}
	if d.Stats.TotalBytes() != 3*128 {
		t.Fatalf("total bytes = %d", d.Stats.TotalBytes())
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

// TestChannelWakeMatchesScan drives a congested DRAM with seeded random
// enqueues and checks the channel bound before every tick: while a
// channel's chWake lies ahead of the cycle, no bank in its scheduling
// window may be ready, so the skipped window scan could not have issued.
// It requires the bound to skip some scans, or the check is vacuous.
func TestChannelWakeMatchesScan(t *testing.T) {
	d := newDRAM()
	rng := uint64(7)
	skipped := 0
	for cyc := int64(0); cyc < 20_000; cyc++ {
		for n := 0; n < 3; n++ {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			if rng%4 == 0 {
				d.Enqueue(&memtypes.Request{Line: memtypes.LineAddr(rng % (1 << 24) * memtypes.LineSize), Kind: memtypes.Load})
			}
		}
		for ch := range d.chWake {
			if cyc >= d.chWake[ch] {
				continue
			}
			skipped++
			q := d.waiting(ch)
			for _, e := range q[:min(len(q), 16)] {
				if r := d.banks[e.bank].readyAt; r <= cyc {
					t.Fatalf("cycle %d: channel %d bound %d skips a scan, but bank %d is ready at %d",
						cyc, ch, d.chWake[ch], e.bank, r)
				}
			}
		}
		d.Tick(cyc)
	}
	if skipped == 0 {
		t.Fatal("the channel bound never skipped a scan")
	}
	t.Logf("%d channel scans skipped; %d reads", skipped, d.Stats.Reads)
}

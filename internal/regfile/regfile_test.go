package regfile

import (
	"testing"
	"testing/quick"

	"github.com/linebacker-sim/linebacker/internal/config"
)

func newRF() *RegFile {
	cfg := config.Default()
	return New(&cfg.GPU)
}

func TestCapacity(t *testing.T) {
	rf := newRF()
	if rf.TotalRegs() != 2048 {
		t.Fatalf("256 KB RF: %d warp-registers, want 2048", rf.TotalRegs())
	}
	if rf.StaticallyUnusedBytes() != 256*1024 {
		t.Fatalf("empty RF SUR = %d", rf.StaticallyUnusedBytes())
	}
}

func TestAllocBottomUpAndSUR(t *testing.T) {
	rf := newRF()
	f0, ok := rf.Alloc(0, 512)
	if !ok || f0 != 0 {
		t.Fatalf("first alloc at %d ok=%v", f0, ok)
	}
	f1, ok := rf.Alloc(1, 512)
	if !ok || f1 != 512 {
		t.Fatalf("second alloc at %d ok=%v", f1, ok)
	}
	if rf.StaticallyUnusedBytes() != (2048-1024)*128 {
		t.Fatalf("SUR = %d", rf.StaticallyUnusedBytes())
	}
	if rf.LargestLiveRN() != 1023 {
		t.Fatalf("LRN = %d, want 1023", rf.LargestLiveRN())
	}
}

func TestFreeReuse(t *testing.T) {
	rf := newRF()
	rf.Alloc(0, 100)
	rf.Alloc(1, 100)
	rf.Free(0)
	f, ok := rf.Alloc(2, 50)
	if !ok || f != 0 {
		t.Fatalf("freed hole not reused: first=%d ok=%v", f, ok)
	}
	// A block too big for the hole goes above allocation 1.
	f3, ok := rf.Alloc(3, 80)
	if !ok || f3 != 200 {
		t.Fatalf("large alloc at %d ok=%v, want 200", f3, ok)
	}
}

// TestFirstFitIntoInteriorGap pins first fit into a freed gap between two
// live allocations: a request that fits the gap lands at its start, even
// when live allocations in lower-numbered slots sit above it, and one
// that does not fit goes above the highest allocation.
func TestFirstFitIntoInteriorGap(t *testing.T) {
	rf := newRF()
	// Slots are taken in descending order, so the allocation at the top of
	// the file belongs to the lowest slot.
	for i, slot := range []int{5, 3, 1} {
		if first, ok := rf.Alloc(slot, 100); !ok || first != 100*i {
			t.Fatalf("Alloc(%d, 100) = %d, %v, want %d, true", slot, first, ok, 100*i)
		}
	}
	rf.Free(3) // frees [100, 200) between [0, 100) and [200, 300)
	if first, ok := rf.Alloc(0, 150); !ok || first != 300 {
		t.Fatalf("Alloc(0, 150) = %d, %v, want 300 (the gap holds 100)", first, ok)
	}
	if first, ok := rf.Alloc(2, 60); !ok || first != 100 {
		t.Fatalf("Alloc(2, 60) = %d, %v, want 100, the gap's start", first, ok)
	}
	if first, ok := rf.Alloc(4, 40); !ok || first != 160 {
		t.Fatalf("Alloc(4, 40) = %d, %v, want 160, the rest of the gap", first, ok)
	}
	if first, ok := rf.Alloc(6, 1); !ok || first != 450 {
		t.Fatalf("Alloc(6, 1) = %d, %v, want 450, above the highest allocation", first, ok)
	}
	if rf.UsedRegs() != 100+100+150+60+40+1 || rf.LargestLiveRN() != 450 {
		t.Fatalf("used %d, LRN %d", rf.UsedRegs(), rf.LargestLiveRN())
	}
}

func TestAllocExhaustion(t *testing.T) {
	rf := newRF()
	if _, ok := rf.Alloc(0, 2048); !ok {
		t.Fatal("full-file alloc should succeed")
	}
	if _, ok := rf.Alloc(1, 1); ok {
		t.Fatal("alloc beyond capacity should fail")
	}
	if _, ok := rf.Alloc(2, 0); ok {
		t.Fatal("zero-size alloc should fail")
	}
}

func TestDoubleAllocPanics(t *testing.T) {
	rf := newRF()
	rf.Alloc(0, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate slot alloc should panic")
		}
	}()
	rf.Alloc(0, 10)
}

// TestRangeAndLRN: an allocation occupies [first, first+count), so the
// largest live register number is the end of the highest range, and it
// falls back when that range is freed.
func TestRangeAndLRN(t *testing.T) {
	rf := newRF()
	first, ok := rf.Alloc(7, 64)
	if !ok || first != 0 {
		t.Fatalf("Alloc(7, 64) = %d, %v, want 0, true", first, ok)
	}
	if first, ok = rf.Alloc(8, 32); !ok || first != 64 {
		t.Fatalf("Alloc(8, 32) = %d, %v, want 64, true", first, ok)
	}
	if rf.LargestLiveRN() != 95 {
		t.Fatalf("LRN = %d, want 95", rf.LargestLiveRN())
	}
	rf.Free(8)
	if rf.LargestLiveRN() != 63 {
		t.Fatalf("LRN after freeing the upper range = %d, want 63", rf.LargestLiveRN())
	}
	rf.Free(7)
	if rf.LargestLiveRN() != -1 {
		t.Fatalf("LRN of empty file = %d, want -1", rf.LargestLiveRN())
	}
}

func TestBankConflictCounting(t *testing.T) {
	rf := newRF()
	// Two accesses to same bank (rn and rn+banks) in one cycle: 1 conflict.
	if rf.VictimRead(0, 1) {
		t.Fatal("first access should not conflict")
	}
	if !rf.VictimRead(32, 1) {
		t.Fatal("same-bank same-cycle access should conflict")
	}
	if rf.Stats.BankConflicts != 1 {
		t.Fatalf("conflicts = %d", rf.Stats.BankConflicts)
	}
	// New cycle resets bank usage.
	if rf.VictimRead(64, 2) {
		t.Fatal("new cycle should not conflict")
	}
}

func TestOperandAccessCounts(t *testing.T) {
	rf := newRF()
	c := rf.AccessOperands(0, 3, 5)
	if c != 0 {
		t.Fatalf("3 distinct banks conflicted: %d", c)
	}
	if rf.Stats.OperandAccesses != 3 {
		t.Fatalf("operand accesses = %d", rf.Stats.OperandAccesses)
	}
	// 33 consecutive registers wrap the 32 banks once: 1 conflict.
	rf2 := newRF()
	if c := rf2.AccessOperands(0, 33, 1); c != 1 {
		t.Fatalf("wrap conflicts = %d, want 1", c)
	}
}

func TestStatsTotal(t *testing.T) {
	rf := newRF()
	rf.AccessOperands(0, 2, 1)
	rf.VictimRead(600, 2)
	rf.VictimWrite(601, 3)
	rf.BackupRead(10, 4)
	rf.RestoreWrite(10, 5)
	if rf.Stats.TotalAccesses() != 6 {
		t.Fatalf("total = %d, want 6", rf.Stats.TotalAccesses())
	}
}

// Property: allocations never overlap and never exceed capacity.
func TestAllocNoOverlapProperty(t *testing.T) {
	f := func(sizes []uint8) bool {
		rf := newRF()
		type rng struct{ first, count int }
		live := map[int]rng{}
		slot := 0
		for i, s := range sizes {
			n := int(s)%300 + 1
			if i%5 == 4 && len(live) > 0 {
				// Free an arbitrary live slot.
				for k := range live {
					rf.Free(k)
					delete(live, k)
					break
				}
				continue
			}
			if first, ok := rf.Alloc(slot, n); ok {
				live[slot] = rng{first, n}
			}
			slot++
		}
		total := 0
		var all []rng
		for _, r := range live {
			total += r.count
			all = append(all, r)
		}
		if total != rf.UsedRegs() || total > rf.TotalRegs() {
			return false
		}
		for i := range all {
			for j := i + 1; j < len(all); j++ {
				a, b := all[i], all[j]
				if a.first < b.first+b.count && b.first < a.first+a.count {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// counterBanks is the per-cycle counter array the bank stamps replaced:
// every new cycle clears the counters, and an access to a bank already
// counted this cycle is a conflict.
type counterBanks struct {
	use       []int
	cycle     int64
	conflicts int64
}

func (c *counterBanks) touch(rn int, cycle int64) bool {
	if cycle != c.cycle {
		clear(c.use)
		c.cycle = cycle
	}
	b := rn % len(c.use)
	c.use[b]++
	if c.use[b] > 1 {
		c.conflicts++
		return true
	}
	return false
}

// TestBankStampsMatchCounters drives random access sequences, at
// non-decreasing cycles as the engine issues them, through the register
// file and through the counter-array reference, and requires the same
// verdict for every access. The bank counts include a non-power of two and
// counts below 3, where one three-operand instruction wraps onto a bank it
// already used.
func TestBankStampsMatchCounters(t *testing.T) {
	for _, banks := range []int{1, 2, 3, 5, 32} {
		cfg := config.Default()
		cfg.GPU.RegFileBanks = banks
		rf := New(&cfg.GPU)
		ref := &counterBanks{use: make([]int, banks)}
		rng := uint64(banks)*0x9E3779B97F4A7C15 + 1
		var cycle int64
		for i := 0; i < 20_000; i++ {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			if rng%3 == 0 {
				cycle += int64(rng>>4) % 3
			}
			rn := int(rng>>8) % rf.TotalRegs()
			if rng%2 == 0 {
				n := 1 + int(rng>>20)%4
				want := 0
				for j := 0; j < n; j++ {
					if ref.touch(rn+j, cycle) {
						want++
					}
				}
				if got := rf.AccessOperands(rn, n, cycle); got != want {
					t.Fatalf("banks %d, access %d: AccessOperands(%d, %d, %d) = %d conflicts, reference %d",
						banks, i, rn, n, cycle, got, want)
				}
				continue
			}
			if got, want := rf.VictimRead(rn, cycle), ref.touch(rn, cycle); got != want {
				t.Fatalf("banks %d, access %d: VictimRead(%d, %d) = %v, reference %v", banks, i, rn, cycle, got, want)
			}
		}
		if rf.Stats.BankConflicts != ref.conflicts || ref.conflicts == 0 {
			t.Fatalf("banks %d: %d conflicts, reference %d", banks, rf.Stats.BankConflicts, ref.conflicts)
		}
	}
}

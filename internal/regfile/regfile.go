// Package regfile models one SM's banked register file: 256 KB organised as
// 2048 warp-registers of 128 B spread over 32 banks. It tracks per-CTA
// allocation (so statically and dynamically unused space can be measured),
// and counts bank conflicts between warp-operand traffic and Linebacker /
// CERF victim-line traffic — the Figure 16 metric.
package regfile

import (
	"fmt"

	"github.com/linebacker-sim/linebacker/internal/config"
	"github.com/linebacker-sim/linebacker/internal/memtypes"
)

// Stats aggregates register file events.
type Stats struct {
	OperandAccesses int64 // warp operand reads+writes (register granularity)
	VictimReads     int64 // victim-cache line reads (Reg hits)
	VictimWrites    int64 // victim-line installs
	BackupReads     int64 // register backup drains
	RestoreWrites   int64 // register restore fills
	BankConflicts   int64 // extra same-cycle same-bank accesses
}

// TotalAccesses returns every counted RF access.
func (s *Stats) TotalAccesses() int64 {
	return s.OperandAccesses + s.VictimReads + s.VictimWrites + s.BackupReads + s.RestoreWrites
}

// allocation is one CTA slot's register range [first, first+count). A
// free slot's is zero: the empty range [0, 0), which overlaps nothing.
type allocation struct {
	first int // first warp-register number
	count int
}

// RegFile is one SM's register file.
type RegFile struct {
	totalRegs int
	banks     int

	allocs []allocation // indexed by CTA slot
	used   int          // warp-registers allocated

	// bankUsed is the cycle of each bank's last access (-1 before the
	// first). Every caller passes the current cycle, which never decreases
	// within a run, so an access finding its own cycle there is a
	// same-cycle conflict, with no per-cycle reset.
	bankUsed []int64

	Stats Stats
}

// New builds the register file for the given GPU configuration.
func New(g *config.GPU) *RegFile {
	rf := &RegFile{}
	rf.Reset(g)
	return rf
}

// Reset makes rf the empty register file New builds for g, reusing its
// arrays when they are large enough.
func (rf *RegFile) Reset(g *config.GPU) {
	*rf = RegFile{
		totalRegs: g.WarpRegisters(),
		banks:     g.RegFileBanks,
		allocs:    memtypes.Reslice(rf.allocs, g.MaxCTAsPerSM),
		bankUsed:  memtypes.Reslice(rf.bankUsed, g.RegFileBanks),
	}
	for b := range rf.bankUsed {
		rf.bankUsed[b] = -1
	}
}

// TotalRegs returns the number of warp-registers.
func (rf *RegFile) TotalRegs() int { return rf.totalRegs }

// UsedRegs returns the number of allocated warp-registers.
func (rf *RegFile) UsedRegs() int { return rf.used }

// StaticallyUnusedBytes returns the register file space not allocated to any
// resident CTA — the paper's SUR.
func (rf *RegFile) StaticallyUnusedBytes() int {
	return (rf.totalRegs - rf.used) * config.LineSize
}

// Alloc reserves count warp-registers for the CTA slot, first-fit from the
// bottom of the file (matching the paper: throttled CTAs free the top).
// It returns the first register number, or ok=false if space is lacking.
func (rf *RegFile) Alloc(ctaSlot, count int) (first int, ok bool) {
	if count <= 0 {
		return 0, false
	}
	if n := ctaSlot + 1 - len(rf.allocs); n > 0 {
		rf.allocs = append(rf.allocs, make([]allocation, n)...)
	}
	if rf.allocs[ctaSlot].count > 0 {
		panic(fmt.Sprintf("regfile: CTA slot %d already allocated", ctaSlot))
	}
	// First fit: each pass moves next past every allocation it overlaps,
	// until a pass finds none. next never passes the lowest feasible
	// offset (an overlapped allocation rules out every offset below its
	// end), so the placement is that offset whatever order the slots are
	// visited in.
	next := 0
	for {
		conflict := false
		for _, a := range rf.allocs {
			if next < a.first+a.count && a.first < next+count {
				conflict = true
				if a.first+a.count > next {
					next = a.first + a.count
				}
			}
		}
		if !conflict {
			break
		}
		if next+count > rf.totalRegs {
			return 0, false
		}
	}
	if next+count > rf.totalRegs {
		return 0, false
	}
	rf.allocs[ctaSlot] = allocation{first: next, count: count}
	rf.used += count
	return next, true
}

// Free releases the CTA slot's registers.
func (rf *RegFile) Free(ctaSlot int) {
	if ctaSlot >= len(rf.allocs) {
		return
	}
	rf.used -= rf.allocs[ctaSlot].count
	rf.allocs[ctaSlot] = allocation{}
}

// LargestLiveRN returns the highest register number of any allocation, or
// -1 when empty — the paper's LRN used to gate VTT partition activation.
func (rf *RegFile) LargestLiveRN() int {
	lrn := -1
	for _, a := range rf.allocs {
		if a.count > 0 && a.first+a.count-1 > lrn {
			lrn = a.first + a.count - 1
		}
	}
	return lrn
}

// touch registers an access to rn at the cycle for conflict accounting and
// returns true if the access collided with an earlier same-cycle access to
// the same bank.
func (rf *RegFile) touch(rn int, cycle int64) bool { return rf.touchBank(rn%rf.banks, cycle) }

func (rf *RegFile) touchBank(b int, cycle int64) bool {
	if rf.bankUsed[b] != cycle {
		rf.bankUsed[b] = cycle
		return false
	}
	rf.Stats.BankConflicts++
	return true
}

// AccessOperands models the operand traffic of one issued warp instruction:
// n register accesses at distinct (modelled) registers starting at baseRN.
// It returns the number of bank conflicts incurred.
func (rf *RegFile) AccessOperands(baseRN, n int, cycle int64) int {
	rf.Stats.OperandAccesses += int64(n)
	conflicts := 0
	b := baseRN % rf.banks
	for range n {
		if rf.touchBank(b, cycle) {
			conflicts++
		}
		if b++; b == rf.banks {
			b = 0
		}
	}
	return conflicts
}

// VictimRead models reading a victim line from register rn (a Reg hit).
// It returns true on a bank conflict (caller adds a cycle of latency).
func (rf *RegFile) VictimRead(rn int, cycle int64) bool {
	rf.Stats.VictimReads++
	return rf.touch(rn, cycle)
}

// VictimWrite models installing an evicted line into register rn.
func (rf *RegFile) VictimWrite(rn int, cycle int64) bool {
	rf.Stats.VictimWrites++
	return rf.touch(rn, cycle)
}

// BackupRead models draining one register during CTA backup.
func (rf *RegFile) BackupRead(rn int, cycle int64) bool {
	rf.Stats.BackupReads++
	return rf.touch(rn, cycle)
}

// RestoreWrite models filling one register during CTA restore.
func (rf *RegFile) RestoreWrite(rn int, cycle int64) bool {
	rf.Stats.RestoreWrites++
	return rf.touch(rn, cycle)
}

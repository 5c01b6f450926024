package cache

import (
	"math/bits"

	"github.com/linebacker-sim/linebacker/internal/memtypes"
)

// MSHREntry tracks one outstanding fill.
type MSHREntry struct {
	Line memtypes.LineAddr
	// Allocated reports whether a way was reserved for the fill.
	Allocated bool
}

// mshrFile is a cache's fixed table of outstanding fills, as in hardware:
// a fixed number of slots, a stack of free ones, and an index from line to
// slot. A line keeps its slot from the miss that takes it to the Fill that
// frees it, so the engine keys each fill's waiter list by slot. Which free
// slot a miss gets is invisible to simulated state.
//
// The index is open-addressed with linear probing over a power-of-two
// table of at least twice as many buckets as slots, so it is at most half
// full. A removal shifts the entries of its probe cluster back into the
// hole (backward-shift deletion), so no tombstones build up.
type mshrFile struct {
	slots []mshrSlot
	free  []int32 // free slot numbers; the top is handed out next
	index []mshrKey
	shift uint // 64 - log2(len(index)); Fibonacci-hash high bits
	// noWay counts the live entries that reserved no way (bypass
	// fetches): the only ones a set walk cannot find.
	noWay int
}

// mshrSlot is one MSHR: its entry and, for an Allocated entry, the c.lines
// index of the way the fill reserved.
type mshrSlot struct {
	MSHREntry
	way int
}

// mshrKey is one index bucket. slot is the slot number plus one, so the
// zero bucket is empty.
type mshrKey struct {
	line memtypes.LineAddr
	slot int32
}

// newMSHRFile returns an empty file of n slots.
func newMSHRFile(n int) mshrFile {
	var f mshrFile
	f.reset(n)
	return f
}

// reset empties the file and gives it n slots, reusing its arrays when
// they are large enough. Every slot's entry is zero, as in a new file.
func (f *mshrFile) reset(n int) {
	size := 2
	for size < 2*n {
		size *= 2
	}
	*f = mshrFile{
		slots: memtypes.Reslice(f.slots, n),
		free:  memtypes.Reslice(f.free, n),
		index: memtypes.Reslice(f.index, size),
		shift: uint(64 - bits.TrailingZeros(uint(size))),
	}
	for i := range f.free {
		f.free[i] = int32(n - 1 - i)
	}
}

// live returns the number of slots in use.
func (f *mshrFile) live() int { return len(f.slots) - len(f.free) }

// home returns l's first bucket.
func (f *mshrFile) home(l memtypes.LineAddr) int {
	return int(uint64(l) * 0x9E3779B97F4A7C15 >> f.shift)
}

// bucket returns the bucket holding l and true, or the empty bucket that
// ends l's probe sequence and false.
func (f *mshrFile) bucket(l memtypes.LineAddr) (int, bool) {
	mask := len(f.index) - 1
	for i := f.home(l); ; i = (i + 1) & mask {
		switch k := &f.index[i]; {
		case k.slot == 0:
			return i, false
		case k.line == l:
			return i, true
		}
	}
}

// find returns l's slot, or -1 when l has no entry.
func (f *mshrFile) find(l memtypes.LineAddr) int {
	i, ok := f.bucket(l)
	if !ok {
		return -1
	}
	return int(f.index[i].slot - 1)
}

// insert gives l, which has no entry, a free slot and returns it; way is
// the reserved way's c.lines index, or -1 for a fetch that allocates none.
// The file must not be full.
func (f *mshrFile) insert(l memtypes.LineAddr, way int) int {
	s := f.free[len(f.free)-1]
	f.free = f.free[:len(f.free)-1]
	f.slots[s] = mshrSlot{MSHREntry: MSHREntry{Line: l, Allocated: way >= 0}, way: way}
	if way < 0 {
		f.noWay++
	}
	i, _ := f.bucket(l)
	f.index[i] = mshrKey{line: l, slot: s + 1}
	return int(s)
}

// remove frees l's slot and returns it, or -1 when l has no entry. The
// slot keeps its entry until a later insert reuses it.
func (f *mshrFile) remove(l memtypes.LineAddr) int {
	hole, ok := f.bucket(l)
	if !ok {
		return -1
	}
	s := f.index[hole].slot - 1
	f.free = append(f.free, s)
	if !f.slots[s].Allocated {
		f.noWay--
	}
	// Walk the rest of the cluster. An entry whose home lies cyclically in
	// (hole, j] would land before its home if moved, so it stays; any
	// other entry moves into the hole, which moves to its bucket.
	mask := len(f.index) - 1
	for j := (hole + 1) & mask; f.index[j].slot != 0; j = (j + 1) & mask {
		if (j-f.home(f.index[j].line))&mask < (j-hole)&mask {
			continue
		}
		f.index[hole] = f.index[j]
		hole = j
	}
	f.index[hole] = mshrKey{}
	return int(s)
}

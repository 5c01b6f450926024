// Package cache implements the set-associative caches of the simulated GPU:
// a 128 B-line, LRU, MSHR-backed cache used for both the per-SM L1 data
// cache (write-evict on store hit, no-allocate on store miss, as the paper's
// baseline) and the shared L2 (write-allocate, write-back).
//
// The L1 additionally carries the paper's per-line hashed-PC (HPC) field so
// Linebacker can verify which static load last touched an evicted line, and
// classifies every miss as cold or capacity/conflict for the Figure 1
// breakdown.
package cache

import (
	"fmt"
	"math/bits"

	"github.com/linebacker-sim/linebacker/internal/memtypes"
)

// Result is the outcome of a cache access.
type Result uint8

const (
	// Hit: the line is present and filled.
	Hit Result = iota
	// HitPending: the line is allocated but its fill is still in flight;
	// the access is merged into the outstanding MSHR entry.
	HitPending
	// Miss: the line was absent; an MSHR was allocated (and, for allocating
	// accesses, a way was reserved, possibly evicting a victim).
	Miss
	// MissNoAlloc: the line was absent and the access does not allocate
	// (store miss under write-no-allocate, or an explicit bypass).
	MissNoAlloc
	// Stall: no MSHR available; the access must be retried later.
	Stall
)

// String implements fmt.Stringer.
func (r Result) String() string {
	switch r {
	case Hit:
		return "hit"
	case HitPending:
		return "hit-pending"
	case Miss:
		return "miss"
	case MissNoAlloc:
		return "miss-noalloc"
	case Stall:
		return "stall"
	default:
		return fmt.Sprintf("Result(%d)", uint8(r))
	}
}

// Eviction describes a valid line pushed out by an allocation.
type Eviction struct {
	Line  memtypes.LineAddr
	HPC   uint32 // hashed PC of the last load that touched the line
	Dirty bool
}

// line is one cache way.
type line struct {
	valid   bool
	pending bool // allocated, fill in flight
	dirty   bool
	mshr    int32 // MSHR slot of the fill in flight, while pending
	tag     memtypes.LineAddr
	hpc     uint32
	lru     int64 // last-touch stamp; higher = more recent
}

// Stats aggregates cache event counts.
type Stats struct {
	LoadHits        int64
	LoadPendingHits int64
	LoadMisses      int64
	ColdMisses      int64 // subset of LoadMisses: first-ever touch
	CapConfMisses   int64 // subset of LoadMisses: line was resident before
	StoreHits       int64 // write-evict caches: line invalidated
	StoreMisses     int64
	Bypasses        int64
	Evictions       int64
	DirtyEvictions  int64
	MSHRStalls      int64
}

// TotalLoadAccesses returns hits+pending-hits+misses.
func (s *Stats) TotalLoadAccesses() int64 {
	return s.LoadHits + s.LoadPendingHits + s.LoadMisses
}

// Cache is a set-associative, LRU, MSHR-backed cache model.
type Cache struct {
	sets  int
	ways  int
	lines []line // sets*ways, row-major by set

	// setMask indexes sets by AND when the set count is a power of two
	// (every L2 geometry in Table 1); setPow2 gates the fallback modulo for
	// the others (the 48 KB / 8-way L1 has 48 sets).
	setMask uint64
	setPow2 bool

	mshrs mshrFile

	writeAllocate bool // false: L1 policy (write-evict / no-allocate)

	// seen records every line address ever requested, to split cold from
	// capacity/conflict misses (Figure 1).
	seen lineSet

	stamp int64
	// gen counts the calls that may write tags or MSHRs. A Lookup records
	// it, and LoadFrom refuses a Lookup taken before the latest such call.
	gen   uint64
	Stats Stats
}

// lineSet is an exact set of line addresses, stored as 512-bit presence
// pages: one page covers 512 consecutive lines (64 KB of address space) and
// is found through an open-addressed (linear-probe) page table. Streaming
// and tiled address streams are dense, so a page holds many lines and the
// set costs about one bit per line; the table grows only when a new page
// appears, not on every line. The zero value is an empty set.
type lineSet struct {
	pages []presencePage
	shift uint // 64 - log2(len(pages)); Fibonacci-hash high bits
	used  int  // occupied pages
	n     int  // distinct lines
}

// presencePage holds one bit per line of its page. tag is the page's key
// plus one, so a zero tag marks an empty table slot.
type presencePage struct {
	tag  uint64
	bits [pageLines / 64]uint64
}

const (
	lineBits  = 7 // log2(memtypes.LineSize)
	pageBits  = 9 // log2(pageLines)
	pageLines = 1 << pageBits
)

// pageOf splits a line address into its page key and its line's bit within
// the page. The key also carries the address's offset inside its line, so
// the split is one-to-one on every 64-bit value: an address that is not
// line-aligned (a JSON kernel may place a footprint at any byte) gets pages
// of its own instead of sharing a bit with its aligned neighbour.
func pageOf(l memtypes.LineAddr) (key uint64, bit uint) {
	n := uint64(l) >> lineBits
	off := uint64(l) & (memtypes.LineSize - 1)
	return n>>pageBits | off<<(64-lineBits-pageBits), uint(n & (pageLines - 1))
}

// Add inserts l, reporting whether it was absent (first-ever touch).
func (s *lineSet) Add(l memtypes.LineAddr) bool {
	key, bit := pageOf(l)
	p := s.page(key + 1)
	w, m := bit/64, uint64(1)<<(bit%64)
	if p.bits[w]&m != 0 {
		return false
	}
	p.bits[w] |= m
	s.n++
	return true
}

// page returns the page stored under tag, claiming an empty slot for it if
// it is new.
func (s *lineSet) page(tag uint64) *presencePage {
	if (s.used+1)*4 > len(s.pages)*3 {
		s.grow()
	}
	mask := uint64(len(s.pages) - 1)
	i := (tag * 0x9E3779B97F4A7C15) >> s.shift
	for s.pages[i].tag != tag {
		if s.pages[i].tag == 0 {
			s.pages[i].tag = tag
			s.used++
			break
		}
		i = (i + 1) & mask
	}
	return &s.pages[i]
}

// Len returns the number of distinct addresses recorded.
func (s *lineSet) Len() int { return s.n }

// clear empties the set and keeps its page table at its size.
func (s *lineSet) clear() {
	clear(s.pages)
	s.used, s.n = 0, 0
}

func (s *lineSet) grow() {
	newLen := 16
	if len(s.pages) > 0 {
		newLen = len(s.pages) * 2
	}
	old := s.pages
	s.pages = make([]presencePage, newLen)
	s.shift = uint(64 - bits.TrailingZeros(uint(newLen)))
	mask := uint64(newLen - 1)
	for _, p := range old {
		if p.tag == 0 {
			continue
		}
		i := (p.tag * 0x9E3779B97F4A7C15) >> s.shift
		for s.pages[i].tag != 0 {
			i = (i + 1) & mask
		}
		s.pages[i] = p
	}
}

// New builds a cache of the given geometry. ways must divide sizeBytes/128.
func New(sizeBytes, ways, mshrs int, writeAllocate bool) *Cache {
	c := &Cache{}
	c.Reset(sizeBytes, ways, mshrs, writeAllocate)
	return c
}

// Reset makes c the cache New builds for the geometry: no valid line, no
// fill in flight, no line ever seen, zero counters. It keeps c's line
// array, MSHR file and cold-miss page table wherever they are large
// enough, so re-arming a cache allocates only for a larger geometry than
// it has held. ways must divide sizeBytes/128.
func (c *Cache) Reset(sizeBytes, ways, mshrs int, writeAllocate bool) {
	if sizeBytes%(memtypes.LineSize*ways) != 0 {
		panic(fmt.Sprintf("cache: %d B not divisible into %d-way sets", sizeBytes, ways))
	}
	c.seen.clear()
	*c = Cache{
		ways:          ways,
		lines:         c.lines,
		mshrs:         c.mshrs,
		writeAllocate: writeAllocate,
		seen:          c.seen,
	}
	c.setGeometry(sizeBytes/(memtypes.LineSize*ways), mshrs)
}

// setGeometry gives c sets sets of empty ways and an empty file of mshrs
// MSHRs, reusing the arrays it has, and precomputes the set-index mask
// for power-of-two set counts.
func (c *Cache) setGeometry(sets, mshrs int) {
	c.sets = sets
	c.lines = memtypes.Reslice(c.lines, sets*c.ways)
	c.mshrs.reset(mshrs)
	c.setPow2 = sets&(sets-1) == 0
	if c.setPow2 {
		c.setMask = uint64(sets - 1)
	} else {
		c.setMask = 0
	}
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// SetIndex returns the set index for a line address.
func (c *Cache) SetIndex(l memtypes.LineAddr) int {
	n := uint64(l) / memtypes.LineSize
	if c.setPow2 {
		return int(n & c.setMask)
	}
	return int(n % uint64(c.sets))
}

// MSHRFree reports whether a new miss can currently be tracked.
func (c *Cache) MSHRFree() bool { return len(c.mshrs.free) > 0 }

// OutstandingFills returns the number of live MSHR entries.
func (c *Cache) OutstandingFills() int { return c.mshrs.live() }

// MSHRSlot returns the MSHR slot of the line's outstanding fill
// (allocated fill or bypass fetch), or -1 when it has none. An access to
// an outstanding line merges rather than needing a new MSHR.
func (c *Cache) MSHRSlot(l memtypes.LineAddr) int { return c.mshrs.find(l) }

// MSHR returns the entry in MSHR slot s. A free slot still holds the entry
// of the last fill it tracked.
func (c *Cache) MSHR(s int) MSHREntry { return c.mshrs.slots[s].MSHREntry }

// walk walks l's set once and returns the c.lines indices of the matching
// way (if resident) and of the replacement victim, -1 for none. The victim
// is the first invalid way, else the lowest-LRU non-pending way (earliest
// way on ties), -1 when every way is pending; it is -1 whenever hit is
// not (the walk stops at the match).
func (c *Cache) walk(l memtypes.LineAddr) (hit, victim int) {
	base := c.SetIndex(l) * c.ways
	set := c.lines[base : base+c.ways]
	victim = -1
	var victimLRU int64
	sawInvalid := false
	for w := range set {
		ln := &set[w]
		if ln.valid {
			if ln.tag == l {
				return base + w, -1
			}
			if !sawInvalid && !ln.pending && (victim < 0 || ln.lru < victimLRU) {
				victim, victimLRU = base+w, ln.lru
			}
		} else if !sawInvalid && !ln.pending {
			victim = base + w
			sawInvalid = true
		}
	}
	return -1, victim
}

// Lookup is one walk of a load's set: what a load of the line would find.
// Cache.Lookup takes it and Cache.LoadFrom completes the access from it,
// so a caller can decide on a stall and then access without walking the
// set twice. It is valid until the next Load, LoadFrom, Store, Fill or
// Resize of its cache; LoadFrom panics on a stale one.
type Lookup struct {
	line   memtypes.LineAddr
	gen    uint64
	hit    int32 // c.lines index of the line's way, or -1
	victim int32 // c.lines index of the replacement victim, or -1
	slot   int32 // MSHR slot a load would merge into, or -1
	stall  bool
}

// Resident reports whether the line is present and filled: a load hits.
func (lk Lookup) Resident() bool { return lk.hit >= 0 && lk.slot < 0 }

// Stall reports whether a load would stall: the line is neither resident
// nor outstanding, and every MSHR is taken.
func (lk Lookup) Stall() bool { return lk.stall }

// Lookup walks l's set and, when l has no way while some bypass fetch is in
// flight, looks l up in the MSHR index. It changes nothing.
func (c *Cache) Lookup(l memtypes.LineAddr) Lookup {
	hit, victim := c.walk(l)
	lk := Lookup{line: l, gen: c.gen, hit: int32(hit), victim: int32(victim), slot: -1}
	switch {
	case hit < 0:
		if c.mshrs.noWay > 0 {
			lk.slot = int32(c.mshrs.find(l))
		}
		lk.stall = lk.slot < 0 && len(c.mshrs.free) == 0
	case c.lines[hit].pending:
		lk.slot = c.lines[hit].mshr
	}
	return lk
}

// Load performs a load access for the given line. hpc is the hashed PC of
// the issuing static load; it is written into the line's HPC field on both
// fills and hits, per the paper ("updated whenever the line is first fetched
// or accessed"). allocate=false bypasses the cache on a miss (PCAL-style).
//
// On a Miss the returned eviction (valid==true ⇔ ev.Line!=0 sentinel is NOT
// used; check the third return) describes the replaced line so the caller
// can offer it to a victim cache. The last return is the MSHR slot of the
// entry the access created (Miss, MissNoAlloc) or merged into
// (HitPending), -1 otherwise; the slot stays the line's until the Fill
// that frees it.
func (c *Cache) Load(l memtypes.LineAddr, hpc uint32, allocate bool) (Result, Eviction, bool, int) {
	lk := c.Lookup(l)
	return c.LoadFrom(&lk, hpc, allocate)
}

// LoadFrom performs the load access whose set walk lk already took; it
// answers exactly as Load would. lk must be the cache's latest Lookup
// since any call that writes tags or MSHRs, or LoadFrom panics.
func (c *Cache) LoadFrom(lk *Lookup, hpc uint32, allocate bool) (Result, Eviction, bool, int) {
	if lk.gen != c.gen {
		panic(fmt.Sprintf("cache: stale lookup of line %#x: the cache changed after the walk", uint64(lk.line)))
	}
	c.gen++
	c.stamp++
	if lk.hit >= 0 {
		ln := &c.lines[lk.hit]
		ln.lru = c.stamp
		ln.hpc = hpc
		if lk.slot < 0 {
			c.Stats.LoadHits++
			return Hit, Eviction{}, false, -1
		}
	}
	if lk.slot >= 0 {
		// Pending line, or the same line already being fetched without an
		// allocated way (bypass in flight): merge.
		c.Stats.LoadPendingHits++
		return HitPending, Eviction{}, false, int(lk.slot)
	}
	if lk.stall {
		c.Stats.MSHRStalls++
		return Stall, Eviction{}, false, -1
	}
	l := lk.line
	c.classifyMiss(l)
	c.Stats.LoadMisses++
	if !allocate || lk.victim < 0 {
		// A bypass, or every way reserved by in-flight fills: fetch
		// without allocating.
		c.Stats.Bypasses++
		return MissNoAlloc, Eviction{}, false, c.mshrs.insert(l, -1)
	}
	vi := int(lk.victim)
	victim := &c.lines[vi]
	var ev Eviction
	evicted := false
	if victim.valid {
		ev = Eviction{Line: victim.tag, HPC: victim.hpc, Dirty: victim.dirty}
		evicted = true
		c.Stats.Evictions++
		if victim.dirty {
			c.Stats.DirtyEvictions++
		}
	}
	slot := c.mshrs.insert(l, vi)
	*victim = line{valid: true, pending: true, mshr: int32(slot), tag: l, hpc: hpc, lru: c.stamp}
	return Miss, ev, evicted, slot
}

// Fill completes the outstanding fetch of a line. It returns the MSHR slot
// it frees, or false if none was outstanding (e.g. a store fill in a
// write-allocate cache that was silently dropped). The freed slot's entry
// stays readable through MSHR until a later miss reuses the slot.
func (c *Cache) Fill(l memtypes.LineAddr) (slot int, ok bool) {
	slot = c.mshrs.remove(l)
	if slot < 0 {
		return -1, false
	}
	c.gen++
	if s := &c.mshrs.slots[slot]; s.Allocated {
		c.lines[s.way].pending = false
	}
	return slot, true
}

// Store performs a store access. In a write-evict cache (writeAllocate ==
// false) a hit invalidates the line and the store is forwarded below; a miss
// allocates nothing. In a write-allocate cache a hit marks the line dirty
// and a miss allocates it dirty (fetch-on-write is folded into the fill
// latency by the caller).
func (c *Cache) Store(l memtypes.LineAddr) (Result, Eviction, bool) {
	c.gen++
	c.stamp++
	c.classifySeenOnly(l)
	hit, vi := c.walk(l)
	if hit >= 0 {
		ln := &c.lines[hit]
		if c.writeAllocate {
			if !ln.pending {
				ln.dirty = true
				ln.lru = c.stamp
			}
			c.Stats.StoreHits++
			return Hit, Eviction{}, false
		}
		// Write-evict: invalidate on hit — but never a pending line, whose
		// way is reserved by an in-flight fill. Clobbering it would free
		// the reservation while the Allocated MSHR entry survives, so the
		// later Fill would clear the pending bit of whatever line took the
		// way. The store is forwarded below either way.
		if !ln.pending {
			*ln = line{}
		}
		c.Stats.StoreHits++
		return Hit, Eviction{}, false
	}
	c.Stats.StoreMisses++
	if !c.writeAllocate {
		return MissNoAlloc, Eviction{}, false
	}
	if vi < 0 {
		return MissNoAlloc, Eviction{}, false
	}
	victim := &c.lines[vi]
	var ev Eviction
	evicted := false
	if victim.valid {
		ev = Eviction{Line: victim.tag, HPC: victim.hpc, Dirty: victim.dirty}
		evicted = true
		c.Stats.Evictions++
		if victim.dirty {
			c.Stats.DirtyEvictions++
		}
	}
	*victim = line{valid: true, dirty: true, tag: l, lru: c.stamp}
	return Miss, ev, evicted
}

// classifyMiss records whether a load miss is cold or capacity/conflict.
func (c *Cache) classifyMiss(l memtypes.LineAddr) {
	if c.seen.Add(l) {
		c.Stats.ColdMisses++
	} else {
		c.Stats.CapConfMisses++
	}
}

func (c *Cache) classifySeenOnly(l memtypes.LineAddr) {
	c.seen.Add(l)
}

// Utilization returns the fraction of ways currently valid.
func (c *Cache) Utilization() float64 {
	n := 0
	for i := range c.lines {
		if c.lines[i].valid {
			n++
		}
	}
	return float64(n) / float64(len(c.lines))
}

// Resize rebuilds the cache with a new byte size, dropping all contents and
// outstanding fills; counters and the cold-miss set stay. Used by the
// CacheExt and CERF schemes, which grow the L1 by the unused-register byte
// count at kernel launch. It shares Reset's geometry code, so it reuses
// the line array when that is large enough.
func (c *Cache) Resize(sizeBytes int) {
	if sizeBytes%(memtypes.LineSize*c.ways) != 0 {
		// Round down to a whole number of sets.
		sizeBytes -= sizeBytes % (memtypes.LineSize * c.ways)
	}
	if sizeBytes < memtypes.LineSize*c.ways {
		sizeBytes = memtypes.LineSize * c.ways
	}
	c.gen++
	c.setGeometry(sizeBytes/(memtypes.LineSize*c.ways), len(c.mshrs.slots))
}

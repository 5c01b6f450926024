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

	mshrCap int
	mshr    map[memtypes.LineAddr]MSHREntry

	writeAllocate bool // false: L1 policy (write-evict / no-allocate)

	// seen records every line address ever requested, to split cold from
	// capacity/conflict misses (Figure 1).
	seen lineSet

	stamp int64
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
	for {
		p := &s.pages[i]
		switch p.tag {
		case tag:
			return p
		case 0:
			p.tag = tag
			s.used++
			return p
		}
		i = (i + 1) & mask
	}
}

// Len returns the number of distinct addresses recorded.
func (s *lineSet) Len() int { return s.n }

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

// MSHREntry tracks one outstanding fill.
type MSHREntry struct {
	Line memtypes.LineAddr
	// Merged counts accesses coalesced into this entry after the first.
	Merged int
	// Allocated reports whether a way was reserved for the fill.
	Allocated bool
}

// New builds a cache of the given geometry. ways must divide sizeBytes/128.
func New(sizeBytes, ways, mshrs int, writeAllocate bool) *Cache {
	if sizeBytes%(memtypes.LineSize*ways) != 0 {
		panic(fmt.Sprintf("cache: %d B not divisible into %d-way sets", sizeBytes, ways))
	}
	sets := sizeBytes / (memtypes.LineSize * ways)
	c := &Cache{
		sets:          sets,
		ways:          ways,
		lines:         make([]line, sets*ways),
		mshrCap:       mshrs,
		mshr:          make(map[memtypes.LineAddr]MSHREntry),
		writeAllocate: writeAllocate,
	}
	c.initGeometry()
	return c
}

// initGeometry precomputes the set-index mask for power-of-two set counts.
func (c *Cache) initGeometry() {
	c.setPow2 = c.sets&(c.sets-1) == 0
	if c.setPow2 {
		c.setMask = uint64(c.sets - 1)
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

// Probe reports whether the line is present and filled, without touching
// LRU state or counters.
func (c *Cache) Probe(l memtypes.LineAddr) bool {
	set := c.SetIndex(l)
	for w := 0; w < c.ways; w++ {
		ln := &c.lines[set*c.ways+w]
		if ln.valid && !ln.pending && ln.tag == l {
			return true
		}
	}
	return false
}

// MSHRFree reports whether a new miss can currently be tracked.
func (c *Cache) MSHRFree() bool { return len(c.mshr) < c.mshrCap }

// OutstandingFills returns the number of live MSHR entries.
func (c *Cache) OutstandingFills() int { return len(c.mshr) }

// HasOutstanding reports whether the line has an MSHR entry in flight
// (allocated fill or bypass fetch): an access to it merges rather than
// needing a new MSHR.
func (c *Cache) HasOutstanding(l memtypes.LineAddr) bool {
	_, ok := c.mshr[l]
	return ok
}

func (c *Cache) find(l memtypes.LineAddr) *line {
	base := c.SetIndex(l) * c.ways
	set := c.lines[base : base+c.ways]
	for w := range set {
		if ln := &set[w]; ln.valid && ln.tag == l {
			return ln
		}
	}
	return nil
}

// scan walks the set once and returns both the matching line (if resident)
// and the replacement victim, fusing the separate find + victimWay passes
// the access paths used to make. Victim selection is identical to victimWay:
// the first invalid way wins, else the lowest-LRU non-pending way (earliest
// way on ties), nil when every way is pending. victim is meaningless when
// hit != nil (the scan stops at the match).
func (c *Cache) scan(l memtypes.LineAddr) (hit, victim *line) {
	base := c.SetIndex(l) * c.ways
	set := c.lines[base : base+c.ways]
	sawInvalid := false
	for w := range set {
		ln := &set[w]
		if ln.valid {
			if ln.tag == l {
				return ln, nil
			}
			if !sawInvalid && !ln.pending && (victim == nil || ln.lru < victim.lru) {
				victim = ln
			}
		} else if !sawInvalid && !ln.pending {
			victim = ln
			sawInvalid = true
		}
	}
	return nil, victim
}

// Load performs a load access for the given line. hpc is the hashed PC of
// the issuing static load; it is written into the line's HPC field on both
// fills and hits, per the paper ("updated whenever the line is first fetched
// or accessed"). allocate=false bypasses the cache on a miss (PCAL-style).
//
// On a Miss the returned eviction (valid==true ⇔ ev.Line!=0 sentinel is NOT
// used; check the second return) describes the replaced line so the caller
// can offer it to a victim cache.
func (c *Cache) Load(l memtypes.LineAddr, hpc uint32, allocate bool) (Result, Eviction, bool) {
	c.stamp++
	ln, victim := c.scan(l)
	if ln != nil {
		ln.lru = c.stamp
		ln.hpc = hpc
		if ln.pending {
			c.Stats.LoadPendingHits++
			if e, ok := c.mshr[l]; ok {
				e.Merged++
				c.mshr[l] = e
			}
			return HitPending, Eviction{}, false
		}
		c.Stats.LoadHits++
		return Hit, Eviction{}, false
	}
	// Miss path.
	if e, ok := c.mshr[l]; ok {
		// Same line already being fetched without an allocated way
		// (bypass in flight): merge.
		e.Merged++
		c.mshr[l] = e
		c.Stats.LoadPendingHits++
		return HitPending, Eviction{}, false
	}
	if !c.MSHRFree() {
		c.Stats.MSHRStalls++
		return Stall, Eviction{}, false
	}
	c.classifyMiss(l)
	c.Stats.LoadMisses++
	if !allocate {
		c.Stats.Bypasses++
		c.mshr[l] = MSHREntry{Line: l}
		return MissNoAlloc, Eviction{}, false
	}
	if victim == nil {
		// Every way reserved by in-flight fills: fetch without allocating.
		c.Stats.Bypasses++
		c.mshr[l] = MSHREntry{Line: l}
		return MissNoAlloc, Eviction{}, false
	}
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
	*victim = line{valid: true, pending: true, tag: l, hpc: hpc, lru: c.stamp}
	c.mshr[l] = MSHREntry{Line: l, Allocated: true}
	return Miss, ev, evicted
}

// Fill completes the outstanding fetch of a line. It returns the MSHR entry
// and true, or false if none was outstanding (e.g. a store fill in a
// write-allocate cache that was silently dropped).
func (c *Cache) Fill(l memtypes.LineAddr) (MSHREntry, bool) {
	e, ok := c.mshr[l]
	if !ok {
		return MSHREntry{}, false
	}
	delete(c.mshr, l)
	if e.Allocated {
		if ln := c.find(l); ln != nil && ln.pending {
			ln.pending = false
		}
	}
	return e, true
}

// Store performs a store access. In a write-evict cache (writeAllocate ==
// false) a hit invalidates the line and the store is forwarded below; a miss
// allocates nothing. In a write-allocate cache a hit marks the line dirty
// and a miss allocates it dirty (fetch-on-write is folded into the fill
// latency by the caller).
func (c *Cache) Store(l memtypes.LineAddr) (Result, Eviction, bool) {
	c.stamp++
	c.classifySeenOnly(l)
	ln, victim := c.scan(l)
	if ln != nil {
		if c.writeAllocate {
			if !ln.pending {
				ln.dirty = true
				ln.lru = c.stamp
			}
			c.Stats.StoreHits++
			return Hit, Eviction{}, false
		}
		// Write-evict: invalidate on hit — but never a pending line, whose
		// way is reserved by an in-flight fill (the same guard Invalidate
		// applies). Clobbering it would free the reservation while the
		// Allocated MSHR entry survives, so the later Fill would find no
		// line and the way accounting would be wrong. The store is
		// forwarded below either way.
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
	if victim == nil {
		return MissNoAlloc, Eviction{}, false
	}
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

// Invalidate drops the line if present, returning whether it was present.
// Used by Linebacker's store handling against victim lines and by tests.
func (c *Cache) Invalidate(l memtypes.LineAddr) bool {
	if ln := c.find(l); ln != nil && !ln.pending {
		*ln = line{}
		return true
	}
	return false
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
// outstanding fills. Used by the CacheExt idealisation, which grows the L1
// by the unused-register byte count at kernel launch.
func (c *Cache) Resize(sizeBytes int) {
	if sizeBytes%(memtypes.LineSize*c.ways) != 0 {
		// Round down to a whole number of sets.
		sizeBytes -= sizeBytes % (memtypes.LineSize * c.ways)
	}
	if sizeBytes < memtypes.LineSize*c.ways {
		sizeBytes = memtypes.LineSize * c.ways
	}
	c.sets = sizeBytes / (memtypes.LineSize * c.ways)
	c.lines = make([]line, c.sets*c.ways)
	c.mshr = make(map[memtypes.LineAddr]MSHREntry)
	c.initGeometry()
}

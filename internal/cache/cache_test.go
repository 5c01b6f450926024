package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/linebacker-sim/linebacker/internal/memtypes"
)

func lineAt(set, n int, c *Cache) memtypes.LineAddr {
	// Distinct lines mapping to the given set: stride one full cache image.
	return memtypes.LineAddr((set + n*c.Sets()) * memtypes.LineSize)
}

func mustLoad(t *testing.T, c *Cache, l memtypes.LineAddr, want Result) (Eviction, bool) {
	t.Helper()
	r, ev, ok := c.Load(l, 0, true)
	if r != want {
		t.Fatalf("Load(%#x) = %v, want %v", l, r, want)
	}
	return ev, ok
}

func TestGeometry(t *testing.T) {
	c := New(48*1024, 8, 64, false)
	if c.Sets() != 48 {
		t.Fatalf("48 KB 8-way: sets = %d, want 48 (paper)", c.Sets())
	}
	if c.Ways() != 8 {
		t.Fatalf("ways = %d, want 8", c.Ways())
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with non-divisible size should panic")
		}
	}()
	New(1000, 8, 4, false)
}

func TestLoadMissFillHit(t *testing.T) {
	c := New(4*1024, 4, 8, false)
	l := memtypes.LineAddr(0)
	mustLoad(t, c, l, Miss)
	// Before fill, accesses merge.
	mustLoad(t, c, l, HitPending)
	if e, ok := c.Fill(l); !ok || e.Merged != 1 {
		t.Fatalf("Fill = %+v, %v, want merged=1", e, ok)
	}
	mustLoad(t, c, l, Hit)
	if c.Stats.LoadHits != 1 || c.Stats.LoadMisses != 1 || c.Stats.LoadPendingHits != 1 {
		t.Fatalf("stats = %+v", c.Stats)
	}
}

func TestColdVsCapacityClassification(t *testing.T) {
	c := New(1024, 2, 8, false) // 4 sets, 2 ways
	// Fill set 0 with 3 distinct lines: third evicts first.
	a, b, d := lineAt(0, 0, c), lineAt(0, 1, c), lineAt(0, 2, c)
	for _, l := range []memtypes.LineAddr{a, b, d} {
		c.Load(l, 0, true)
		c.Fill(l)
	}
	if c.Stats.ColdMisses != 3 || c.Stats.CapConfMisses != 0 {
		t.Fatalf("after cold fills: %+v", c.Stats)
	}
	// Re-access evicted a: capacity/conflict miss.
	if r, _, _ := c.Load(a, 0, true); r != Miss {
		t.Fatalf("re-load evicted line = %v, want Miss", r)
	}
	if c.Stats.CapConfMisses != 1 {
		t.Fatalf("capacity misses = %d, want 1", c.Stats.CapConfMisses)
	}
	if got := c.Stats.ColdMisses + c.Stats.CapConfMisses; got != c.Stats.LoadMisses {
		t.Fatalf("cold+2C = %d, misses = %d", got, c.Stats.LoadMisses)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(1024, 2, 8, false) // 4 sets, 2 ways
	a, b, d := lineAt(1, 0, c), lineAt(1, 1, c), lineAt(1, 2, c)
	c.Load(a, 7, true)
	c.Fill(a)
	c.Load(b, 8, true)
	c.Fill(b)
	c.Load(a, 7, true) // touch a: b becomes LRU
	r, ev, evicted := c.Load(d, 9, true)
	if r != Miss || !evicted {
		t.Fatalf("expected eviction on miss, got %v evicted=%v", r, evicted)
	}
	if ev.Line != b || ev.HPC != 8 {
		t.Fatalf("evicted %#x hpc=%d, want %#x hpc=8 (LRU)", ev.Line, ev.HPC, b)
	}
}

func TestEvictionCarriesHPCOfLastAccess(t *testing.T) {
	c := New(512, 1, 8, false) // direct-mapped, 4 sets
	a := lineAt(2, 0, c)
	c.Load(a, 3, true)
	c.Fill(a)
	c.Load(a, 5, true) // HPC updated on hit
	_, ev, evicted := c.Load(lineAt(2, 1, c), 1, true)
	if !evicted || ev.HPC != 5 {
		t.Fatalf("eviction = %+v evicted=%v, want HPC 5", ev, evicted)
	}
}

func TestWriteEvictStoreHitInvalidates(t *testing.T) {
	c := New(1024, 2, 8, false)
	a := lineAt(0, 0, c)
	c.Load(a, 0, true)
	c.Fill(a)
	if r, _, _ := c.Store(a); r != Hit {
		t.Fatalf("store hit = %v", r)
	}
	if c.Probe(a) {
		t.Fatal("write-evict store hit must invalidate the line")
	}
	// Store miss does not allocate.
	b := lineAt(0, 1, c)
	if r, _, _ := c.Store(b); r != MissNoAlloc {
		t.Fatalf("store miss = %v, want MissNoAlloc", r)
	}
	if c.Probe(b) {
		t.Fatal("write-no-allocate must not install the line")
	}
}

// TestWriteEvictStoreOnPendingLine is the regression test for the
// write-evict store bug: a store hitting a *pending* line used to
// invalidate it, freeing the way reserved by the in-flight fill while the
// Allocated MSHR entry survived — Fill then found no line to complete and
// the reservation accounting was wrong. The pending line must survive the
// store, exactly as Invalidate guards it.
func TestWriteEvictStoreOnPendingLine(t *testing.T) {
	c := New(1024, 2, 8, false)
	a := lineAt(0, 0, c)
	mustLoad(t, c, a, Miss) // allocates a way, fill in flight
	if r, _, _ := c.Store(a); r != Hit {
		t.Fatalf("store on pending line = %v, want Hit", r)
	}
	if c.OutstandingFills() != 1 {
		t.Fatalf("outstanding fills = %d, want 1", c.OutstandingFills())
	}
	if e, ok := c.Fill(a); !ok || !e.Allocated {
		t.Fatalf("Fill = %+v, %v, want allocated entry", e, ok)
	}
	if !c.Probe(a) {
		t.Fatal("line reserved by the in-flight fill was lost: store on a pending line must not invalidate it")
	}
	mustLoad(t, c, a, Hit)
}

func TestWriteAllocateStores(t *testing.T) {
	c := New(1024, 2, 8, true)
	a := lineAt(0, 0, c)
	if r, _, _ := c.Store(a); r != Miss {
		t.Fatalf("store miss in write-allocate = %v, want Miss", r)
	}
	if !c.Probe(a) {
		t.Fatal("write-allocate store must install the line")
	}
	// Evicting the dirty line reports Dirty.
	b, d := lineAt(0, 1, c), lineAt(0, 2, c)
	c.Load(b, 0, true)
	c.Fill(b)
	_, ev, evicted := c.Load(d, 0, true)
	if !evicted || !ev.Dirty || ev.Line != a {
		t.Fatalf("eviction = %+v evicted=%v, want dirty %#x", ev, evicted, a)
	}
	if c.Stats.DirtyEvictions != 1 {
		t.Fatalf("dirty evictions = %d", c.Stats.DirtyEvictions)
	}
}

func TestMSHRStallAndBypass(t *testing.T) {
	c := New(1024, 2, 2, false) // 2 MSHRs
	a, b, d := lineAt(0, 0, c), lineAt(1, 0, c), lineAt(2, 0, c)
	mustLoad(t, c, a, Miss)
	mustLoad(t, c, b, Miss)
	if r, _, _ := c.Load(d, 0, true); r != Stall {
		t.Fatalf("third miss with 2 MSHRs = %v, want Stall", r)
	}
	if c.Stats.MSHRStalls != 1 {
		t.Fatalf("stalls = %d", c.Stats.MSHRStalls)
	}
	c.Fill(a)
	mustLoad(t, c, d, Miss)
}

func TestBypassDoesNotAllocate(t *testing.T) {
	c := New(1024, 2, 8, false)
	a := lineAt(0, 0, c)
	if r, _, _ := c.Load(a, 0, false); r != MissNoAlloc {
		t.Fatalf("bypass load = %v", r)
	}
	c.Fill(a)
	if c.Probe(a) {
		t.Fatal("bypassed line must not be resident")
	}
	if c.Stats.Bypasses != 1 {
		t.Fatalf("bypasses = %d", c.Stats.Bypasses)
	}
}

func TestPendingWaysNotEvicted(t *testing.T) {
	c := New(256, 2, 8, false) // 1 set, 2 ways
	a, b, d := lineAt(0, 0, c), lineAt(0, 1, c), lineAt(0, 2, c)
	mustLoad(t, c, a, Miss)
	mustLoad(t, c, b, Miss)
	// Both ways pending: third allocating load must degrade to no-alloc,
	// never evict a reserved way.
	if r, _, _ := c.Load(d, 0, true); r != MissNoAlloc {
		t.Fatalf("load with all ways pending = %v, want MissNoAlloc", r)
	}
	c.Fill(a)
	c.Fill(b)
	c.Fill(d)
	if !c.Probe(a) || !c.Probe(b) {
		t.Fatal("pending lines lost")
	}
}

func TestInvalidate(t *testing.T) {
	c := New(1024, 2, 8, false)
	a := lineAt(0, 0, c)
	c.Load(a, 0, true)
	c.Fill(a)
	if !c.Invalidate(a) {
		t.Fatal("invalidate present line = false")
	}
	if c.Invalidate(a) {
		t.Fatal("invalidate absent line = true")
	}
}

func TestResize(t *testing.T) {
	c := New(1024, 2, 8, false)
	a := lineAt(0, 0, c)
	c.Load(a, 0, true)
	c.Fill(a)
	c.Resize(2048)
	if c.Sets() != 8 {
		t.Fatalf("sets after resize = %d, want 8", c.Sets())
	}
	if c.Probe(a) {
		t.Fatal("resize must drop contents")
	}
	// Non-divisible size rounds down.
	c.Resize(2048 + 100)
	if c.Sets() != 8 {
		t.Fatalf("sets after odd resize = %d, want 8", c.Sets())
	}
}

func TestUtilization(t *testing.T) {
	c := New(1024, 2, 8, false)
	if c.Utilization() != 0 {
		t.Fatal("empty cache utilization != 0")
	}
	a := lineAt(0, 0, c)
	c.Load(a, 0, true)
	c.Fill(a)
	if got := c.Utilization(); got != 1.0/8.0 {
		t.Fatalf("utilization = %v, want 1/8", got)
	}
}

// Property: cold + capacity/conflict always equals total load misses, and a
// line never hits without having been filled after its last invalidation.
func TestMissClassificationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(2048, 4, 16, false)
		filled := map[memtypes.LineAddr]bool{}
		pendingFills := []memtypes.LineAddr{}
		for i := 0; i < 2000; i++ {
			l := memtypes.LineAddr(rng.Intn(64) * memtypes.LineSize)
			switch rng.Intn(4) {
			case 0, 1:
				r, _, _ := c.Load(l, uint32(rng.Intn(32)), true)
				if r == Hit && !filled[l] {
					return false
				}
				if r == Miss || r == MissNoAlloc {
					pendingFills = append(pendingFills, l)
				}
			case 2:
				c.Store(l)
				filled[l] = false
			case 3:
				if len(pendingFills) > 0 {
					j := rng.Intn(len(pendingFills))
					fl := pendingFills[j]
					pendingFills = append(pendingFills[:j], pendingFills[j+1:]...)
					c.Fill(fl)
					filled[fl] = true
				}
			}
			// filled[] overapproximates residency (evictions make it stale),
			// so we only check the "hit implies was filled" direction.
		}
		return c.Stats.ColdMisses+c.Stats.CapConfMisses == c.Stats.LoadMisses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: the number of valid lines never exceeds capacity and each line
// address appears in at most one way.
func TestNoDuplicateResidency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(1024, 4, 8, true)
		for i := 0; i < 1500; i++ {
			l := memtypes.LineAddr(rng.Intn(40) * memtypes.LineSize)
			switch rng.Intn(3) {
			case 0:
				c.Load(l, 0, true)
			case 1:
				c.Store(l)
			case 2:
				c.Fill(l)
			}
		}
		// Count occurrences of each tag among valid lines.
		count := map[memtypes.LineAddr]int{}
		for _, ln := range c.lines {
			if ln.valid {
				count[ln.tag]++
			}
		}
		for _, n := range count {
			if n > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestHashPC(t *testing.T) {
	if got := memtypes.HashPC(0, 5); got != 0 {
		t.Fatalf("HashPC(0) = %d", got)
	}
	// Folding is stable and within range.
	for pc := uint32(0); pc < 4096; pc += 97 {
		h := memtypes.HashPC(pc, 5)
		if h > 31 {
			t.Fatalf("HashPC(%d) = %d out of 5-bit range", pc, h)
		}
		if h != memtypes.HashPC(pc, 5) {
			t.Fatal("HashPC not deterministic")
		}
	}
	// 16-bit PCs with disjoint 5-bit groups map distinctly.
	if memtypes.HashPC(1, 5) == memtypes.HashPC(2, 5) {
		t.Fatal("adjacent PCs collide unexpectedly")
	}
}

func TestHashPCBadBitsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("HashPC with bits=0 should panic")
		}
	}()
	memtypes.HashPC(1, 0)
}

// TestLoadAllocCeiling pins the steady-state allocation cost of Load: a
// warm hit touches no heap at all, and neither does a warm miss — a miss to
// a line the cache has seen before, its Fill and the eviction it forces.
// MSHR entries are map values, not pointers, and the seen-set only grows
// when a line lands on a page it has never held. The ceiling exists to
// catch a regression back to per-access allocation.
func TestLoadAllocCeiling(t *testing.T) {
	c := New(48*1024, 8, 64, false)
	const resident = 128
	for i := 0; i < resident; i++ {
		l := memtypes.LineAddr(i * memtypes.LineSize)
		c.Load(l, 0, true)
		c.Fill(l)
	}
	i := 0
	perOp := testing.AllocsPerRun(4096, func() {
		c.Load(memtypes.LineAddr((i%resident)*memtypes.LineSize), 0, true)
		i++
	})
	if perOp > 0 {
		t.Errorf("warm-hit Load allocates %.3f objects/op, want 0", perOp)
	}

	// Cycle through four times the cache's capacity, so every access
	// misses and evicts; one pass first warms the seen-set.
	span := 4 * c.Sets() * c.Ways()
	lineOf := func(j int) memtypes.LineAddr { return memtypes.LineAddr(j % span * memtypes.LineSize) }
	for j := 0; j < span; j++ {
		c.Load(lineOf(j), 0, true)
		c.Fill(lineOf(j))
	}
	before := c.Stats
	j := 0
	perOp = testing.AllocsPerRun(4096, func() {
		if r, _, _ := c.Load(lineOf(j), 0, true); r != Miss {
			t.Fatalf("Load(%#x) = %v, want Miss", lineOf(j), r)
		}
		c.Fill(lineOf(j))
		j++
	})
	if perOp > 0 {
		t.Errorf("warm miss+Fill allocates %.3f objects/op, want 0", perOp)
	}
	if c.Stats.Evictions == before.Evictions || c.Stats.ColdMisses != before.ColdMisses {
		t.Fatalf("measured loop: %d evictions, %d new cold misses; want evicting misses to seen lines",
			c.Stats.Evictions-before.Evictions, c.Stats.ColdMisses-before.ColdMisses)
	}
}

// TestLineSetMatchesMap checks the paged seen-set against a map reference:
// every Add must report the same first-touch answer, and the final Len
// must agree. The inputs cover seeded random lines, dense streams, address
// 0, lines on both sides of a page boundary and addresses that are not
// line-aligned.
func TestLineSetMatchesMap(t *testing.T) {
	const page = pageLines * memtypes.LineSize
	inputs := []struct {
		name string
		gen  func(rng *rand.Rand) []memtypes.LineAddr
	}{
		{"random", func(rng *rand.Rand) []memtypes.LineAddr {
			out := make([]memtypes.LineAddr, 5000)
			for i := range out {
				// A small pool forces repeats; the high bits spread pages.
				out[i] = memtypes.LineAddr(uint64(rng.Intn(2000))<<40|uint64(rng.Intn(4096))) * memtypes.LineSize
			}
			return out
		}},
		{"dense", func(rng *rand.Rand) []memtypes.LineAddr {
			var out []memtypes.LineAddr
			start := uint64(rng.Intn(1 << 20))
			for pass := 0; pass < 2; pass++ {
				for i := uint64(0); i < 3*pageLines; i++ {
					out = append(out, memtypes.LineAddr((start+i)*memtypes.LineSize))
				}
			}
			return out
		}},
		{"zero", func(rng *rand.Rand) []memtypes.LineAddr {
			return []memtypes.LineAddr{0, memtypes.LineSize, 0, page, 0}
		}},
		{"page-boundary", func(rng *rand.Rand) []memtypes.LineAddr {
			var out []memtypes.LineAddr
			for k := uint64(1); k <= 64; k++ {
				edge := k * uint64(rng.Intn(1<<30)+1) * page
				for _, a := range []uint64{edge - memtypes.LineSize, edge, edge + memtypes.LineSize, edge - memtypes.LineSize, edge} {
					out = append(out, memtypes.LineAddr(a))
				}
			}
			return out
		}},
		{"unaligned", func(rng *rand.Rand) []memtypes.LineAddr {
			out := make([]memtypes.LineAddr, 3000)
			for i := range out {
				out[i] = memtypes.LineAddr(rng.Intn(64 * memtypes.LineSize))
			}
			out = append(out, ^memtypes.LineAddr(0), ^memtypes.LineAddr(0), 1<<63)
			return out
		}},
	}
	for _, in := range inputs {
		for seed := int64(1); seed <= 5; seed++ {
			var s lineSet
			ref := map[memtypes.LineAddr]struct{}{}
			for i, l := range in.gen(rand.New(rand.NewSource(seed))) {
				_, had := ref[l]
				ref[l] = struct{}{}
				if got := s.Add(l); got != !had {
					t.Fatalf("%s seed %d: Add #%d (%#x) = %v, want %v", in.name, seed, i, uint64(l), got, !had)
				}
			}
			if s.Len() != len(ref) {
				t.Fatalf("%s seed %d: Len = %d, want %d", in.name, seed, s.Len(), len(ref))
			}
		}
	}
}

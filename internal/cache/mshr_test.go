package cache

import (
	"math/rand"
	"testing"

	"github.com/linebacker-sim/linebacker/internal/memtypes"
)

// TestMSHRFileMatchesMap drives MSHR files with seeded insert, find and
// remove sequences and checks every answer against a map from line to
// slot: find returns the slot insert handed out, remove frees exactly that
// slot, live equals the map's size, noWay counts the entries inserted
// without a way, and every line the map holds is still found after every
// step. The inputs cover random lines, lines that share
// one home bucket, lines homed at the end of the table so their probes
// wrap to its start, and non-aligned addresses; every input fills the
// file and has inserts refused while it is full.
func TestMSHRFileMatchesMap(t *testing.T) {
	for _, n := range []int{5, 16} {
		size := len(newMSHRFile(n).index)
		homed := func(h, count int) []memtypes.LineAddr {
			f := newMSHRFile(n)
			var out []memtypes.LineAddr
			for k := uint64(1); len(out) < count; k++ {
				if l := memtypes.LineAddr(k * memtypes.LineSize); f.home(l) == h {
					out = append(out, l)
				}
			}
			return out
		}
		inputs := []struct {
			name string
			pool func(rng *rand.Rand) []memtypes.LineAddr
			wrap bool // require an entry stored before its home bucket
		}{
			{"random", func(rng *rand.Rand) []memtypes.LineAddr {
				out := make([]memtypes.LineAddr, 3*n)
				for i := range out {
					out[i] = memtypes.LineAddr(uint64(rng.Int63())) &^ (memtypes.LineSize - 1)
				}
				return out
			}, false},
			{"one-home", func(*rand.Rand) []memtypes.LineAddr { return homed(size/3, 2*n) }, false},
			{"wrap", func(*rand.Rand) []memtypes.LineAddr {
				out := homed(size-1, n)
				out = append(out, homed(size-2, n/2+1)...)
				return append(out, homed(0, n/2+1)...)
			}, true},
			{"unaligned", func(rng *rand.Rand) []memtypes.LineAddr {
				out := make([]memtypes.LineAddr, 3*n)
				for i := range out {
					out[i] = memtypes.LineAddr(rng.Intn(4 * memtypes.LineSize))
				}
				return append(out, 0, 1, ^memtypes.LineAddr(0))
			}, false},
		}
		for _, in := range inputs {
			for seed := int64(1); seed <= 5; seed++ {
				rng := rand.New(rand.NewSource(seed))
				pool := in.pool(rng)
				f := newMSHRFile(n)
				ref := map[memtypes.LineAddr]int{}
				noWay := map[memtypes.LineAddr]bool{}
				refused, wrapped := 0, 0
				for step := 0; step < 3000; step++ {
					l := pool[rng.Intn(len(pool))]
					slot, had := ref[l]
					switch {
					case had && rng.Intn(2) == 0:
						if got := f.remove(l); got != slot {
							t.Fatalf("n=%d %s seed %d step %d: remove(%#x) = %d, want %d", n, in.name, seed, step, uint64(l), got, slot)
						}
						delete(ref, l)
						delete(noWay, l)
					case had:
						if got := f.find(l); got != slot {
							t.Fatalf("n=%d %s seed %d step %d: find(%#x) = %d, want %d", n, in.name, seed, step, uint64(l), got, slot)
						}
					case f.live() == n:
						refused++
						if got := f.remove(l); got != -1 {
							t.Fatalf("n=%d %s seed %d step %d: remove(%#x) of an absent line = %d", n, in.name, seed, step, uint64(l), got)
						}
					default:
						if got := f.find(l); got != -1 {
							t.Fatalf("n=%d %s seed %d step %d: find(%#x) of an absent line = %d", n, in.name, seed, step, uint64(l), got)
						}
						way := rng.Intn(3) - 1
						s := f.insert(l, way)
						for l2, s2 := range ref {
							if s2 == s {
								t.Fatalf("n=%d %s seed %d step %d: insert(%#x) took slot %d, still held by %#x", n, in.name, seed, step, uint64(l), s, uint64(l2))
							}
						}
						if s < 0 || s >= n {
							t.Fatalf("n=%d %s seed %d step %d: insert(%#x) = slot %d of %d", n, in.name, seed, step, uint64(l), s, n)
						}
						ref[l] = s
						if way < 0 {
							noWay[l] = true
						}
					}
					if f.live() != len(ref) || f.noWay != len(noWay) {
						t.Fatalf("n=%d %s seed %d step %d: live = %d, noWay = %d; want %d, %d",
							n, in.name, seed, step, f.live(), f.noWay, len(ref), len(noWay))
					}
					for l2, s2 := range ref {
						if got := f.find(l2); got != s2 || f.slots[s2].Line != l2 {
							t.Fatalf("n=%d %s seed %d step %d: find(%#x) = %d (slot line %#x), want %d",
								n, in.name, seed, step, uint64(l2), got, uint64(f.slots[s2].Line), s2)
						}
					}
					for i, k := range f.index {
						if k.slot != 0 && f.home(k.line) > i {
							wrapped++
						}
					}
				}
				if refused == 0 || (in.wrap && wrapped == 0) {
					t.Fatalf("n=%d %s seed %d: vacuous: %d inserts refused by a full file, %d wrapped entries seen", n, in.name, seed, refused, wrapped)
				}
			}
		}
	}
}

// TestLoadFromRejectsStaleLookup checks the guard behind the engine's one
// set walk per load: a Lookup holds only until the next call that may write
// tags or MSHRs, and LoadFrom refuses a stale one rather than completing an
// access from a walk that no longer describes the cache. A fresh Lookup
// answers as Load does.
func TestLoadFromRejectsStaleLookup(t *testing.T) {
	a, b := memtypes.LineAddr(0), memtypes.LineAddr(memtypes.LineSize)
	writes := []struct {
		name  string
		write func(c *Cache)
	}{
		{"load", func(c *Cache) { c.Load(b, 0, true) }},
		{"store", func(c *Cache) { c.Store(b) }},
		{"fill", func(c *Cache) { c.Fill(a) }},
		{"resize", func(c *Cache) { c.Resize(8 * 1024) }},
	}
	for _, w := range writes {
		c := New(4*1024, 4, 8, false)
		c.Load(a, 0, true)
		lk := c.Lookup(a)
		w.write(c)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s between Lookup and LoadFrom: LoadFrom did not panic", w.name)
				}
			}()
			c.LoadFrom(&lk, 0, true)
		}()
	}

	c := New(4*1024, 4, 8, false)
	_, _, _, slot := c.Load(a, 0, true)
	lk := c.Lookup(a)
	if r, _, _, s := c.LoadFrom(&lk, 0, true); r != HitPending || s != slot {
		t.Fatalf("LoadFrom(Lookup) of a pending line = %v in slot %d, want %v in slot %d", r, s, HitPending, slot)
	}
}

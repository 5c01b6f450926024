package cache

import (
	"testing"

	"github.com/linebacker-sim/linebacker/internal/memtypes"
)

// FuzzCacheOperations drives a cache with an arbitrary operation tape and
// checks structural invariants after every step: no duplicate residency,
// miss classification adds up, and the MSHR file agrees with a map model
// of the outstanding lines. The model holds each outstanding line's slot:
// a miss must take a slot no other line holds, a merge must report the
// line's slot, every Fill must free exactly that slot (or none, for a line
// with no fill in flight), and after every step MSHRSlot and
// OutstandingFills must answer as the model does and every pending way
// must belong to an outstanding line.
func FuzzCacheOperations(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{255, 254, 0, 0, 1, 1})
	f.Add([]byte{0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 0, 7, 1, 3, 2, 7})
	f.Fuzz(func(t *testing.T, tape []byte) {
		const lines = 40
		c := New(2048, 4, 4, len(tape)%2 == 0)
		model := map[memtypes.LineAddr]int{}
		var order []memtypes.LineAddr // outstanding lines, oldest first
		for i := 0; i+1 < len(tape); i += 2 {
			l := memtypes.LineAddr(int(tape[i]) % lines * memtypes.LineSize)
			switch op := tape[i+1]; op % 4 {
			case 0, 1:
				res, _, _, slot := c.Load(l, uint32(op), op%8 < 6)
				want, had := model[l]
				switch res {
				case Miss, MissNoAlloc:
					if had {
						t.Fatalf("step %d: Load(%#x) = %v, but the line is outstanding in slot %d", i/2, l, res, want)
					}
					for l2, s2 := range model {
						if s2 == slot {
							t.Fatalf("step %d: Load(%#x) took slot %d, still held by %#x", i/2, l, slot, l2)
						}
					}
					model[l] = slot
					order = append(order, l)
				case HitPending:
					if !had || slot != want {
						t.Fatalf("step %d: Load(%#x) merged into slot %d; model has slot %d (outstanding %v)", i/2, l, slot, want, had)
					}
				default:
					if slot != -1 {
						t.Fatalf("step %d: Load(%#x) = %v reports slot %d", i/2, l, res, slot)
					}
				}
			case 2:
				c.Store(l)
			case 3:
				// Fill the oldest outstanding line, or the tape's line,
				// which may have nothing in flight.
				if op&4 != 0 && len(order) > 0 {
					l = order[0]
				}
				slot, ok := c.Fill(l)
				want, had := model[l]
				if ok != had || (had && slot != want) || (!had && slot != -1) {
					t.Fatalf("step %d: Fill(%#x) = slot %d, %v; model has slot %d, %v", i/2, l, slot, ok, want, had)
				}
				if had {
					delete(model, l)
					for j, o := range order {
						if o == l {
							order = append(order[:j], order[j+1:]...)
							break
						}
					}
				}
			}
			if got := c.OutstandingFills(); got != len(model) || got > 4 {
				t.Fatalf("step %d: %d outstanding fills, model holds %d (capacity 4)", i/2, got, len(model))
			}
			for k := 0; k < lines; k++ {
				l := memtypes.LineAddr(k * memtypes.LineSize)
				want, had := model[l]
				if !had {
					want = -1
				}
				if got := c.MSHRSlot(l); got != want {
					t.Fatalf("step %d: MSHRSlot(%#x) = %d, model says %d", i/2, l, got, want)
				}
			}
			for _, ln := range c.lines {
				if ln.pending {
					if s, had := model[ln.tag]; !had || s != int(ln.mshr) {
						t.Fatalf("step %d: pending way of %#x names slot %d; model has slot %d (outstanding %v)", i/2, ln.tag, ln.mshr, s, had)
					}
				}
			}
			if c.Stats.ColdMisses+c.Stats.CapConfMisses != c.Stats.LoadMisses {
				t.Fatal("miss classification does not add up")
			}
		}
		// No duplicate residency at the end.
		seen := map[memtypes.LineAddr]int{}
		for _, ln := range c.lines {
			if ln.valid {
				seen[ln.tag]++
				if seen[ln.tag] > 1 {
					t.Fatalf("line %#x resident twice", ln.tag)
				}
			}
		}
	})
}

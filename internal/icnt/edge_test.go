package icnt

import (
	"testing"

	"github.com/linebacker-sim/linebacker/internal/memtypes"
)

// TestLinkEdgeCases table-drives the boundary behaviours: a zero-latency
// link must deliver in the send cycle, and a link driven above its delivery
// rate must back requests up (backpressure) and then drain them in FIFO
// order without losing or duplicating any.
func TestLinkEdgeCases(t *testing.T) {
	cases := []struct {
		name     string
		latency  int64
		perCycle int
		sends    int   // requests injected at cycle 0
		deliver  []int // expected Deliver sizes at cycles 0,1,2,...
	}{
		{"zero-latency-same-cycle", 0, 4, 3, []int{3, 0}},
		{"zero-latency-capped", 0, 2, 5, []int{2, 2, 1, 0}},
		{"unit-latency-single", 1, 1, 3, []int{0, 1, 1, 1, 0}},
		{"latency-then-burst", 3, 8, 6, []int{0, 0, 0, 6, 0}},
		{"empty-link", 5, 2, 0, []int{0, 0}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			l := New(tc.latency, tc.perCycle)
			reqs := make([]*memtypes.Request, tc.sends)
			for i := range reqs {
				reqs[i] = &memtypes.Request{Line: memtypes.LineAddr(i)}
				l.Send(reqs[i], 0)
			}
			var got []*memtypes.Request
			for cyc, want := range tc.deliver {
				out := deliver(l, int64(cyc))
				if len(out) != want {
					t.Fatalf("cycle %d: delivered %d, want %d", cyc, len(out), want)
				}
				if backlog := tc.sends - len(got) - len(out); l.Pending() != backlog {
					t.Fatalf("cycle %d: pending %d, want %d", cyc, l.Pending(), backlog)
				}
				got = append(got, out...)
			}
			if len(got) != tc.sends {
				t.Fatalf("delivered %d of %d sends", len(got), tc.sends)
			}
			for i, r := range got {
				if r != reqs[i] {
					t.Fatalf("delivery %d out of FIFO order", i)
				}
			}
			if l.Sent != int64(tc.sends) || l.Delivered != int64(tc.sends) {
				t.Fatalf("counters sent=%d delivered=%d, want %d", l.Sent, l.Delivered, tc.sends)
			}
		})
	}
}

// TestForEachCensus verifies the checker's census hook sees exactly the
// in-flight requests, and that visiting does not perturb delivery.
func TestForEachCensus(t *testing.T) {
	l := New(4, 2)
	want := map[memtypes.LineAddr]bool{}
	for i := 0; i < 3; i++ {
		r := &memtypes.Request{Line: memtypes.LineAddr(10 + i)}
		want[r.Line] = true
		l.Send(r, 0)
	}
	seen := map[memtypes.LineAddr]bool{}
	l.ForEach(func(r *memtypes.Request) { seen[r.Line] = true })
	if len(seen) != len(want) {
		t.Fatalf("census saw %d requests, want %d", len(seen), len(want))
	}
	for line := range want {
		if !seen[line] {
			t.Fatalf("census missed line %d", line)
		}
	}
	if got := deliver(l, 4); len(got) != 2 {
		t.Fatalf("post-census delivery broken: %d", len(got))
	}
}

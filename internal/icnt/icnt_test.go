package icnt

import (
	"testing"

	"github.com/linebacker-sim/linebacker/internal/memtypes"
)

// deliver collects what DeliverEach hands out at the cycle.
func deliver(l *Link, cycle int64) []*memtypes.Request {
	var out []*memtypes.Request
	l.DeliverEach(cycle, func(req *memtypes.Request) { out = append(out, req) })
	return out
}

func TestLatency(t *testing.T) {
	l := New(10, 4)
	req := &memtypes.Request{Line: 0}
	l.Send(req, 100)
	if got := deliver(l, 109); len(got) != 0 {
		t.Fatalf("delivered %d before latency elapsed", len(got))
	}
	got := deliver(l, 110)
	if len(got) != 1 || got[0] != req {
		t.Fatalf("Deliver = %v", got)
	}
	if l.Pending() != 0 {
		t.Fatalf("pending = %d", l.Pending())
	}
}

func TestThroughputCap(t *testing.T) {
	l := New(1, 2)
	for i := 0; i < 5; i++ {
		l.Send(&memtypes.Request{Line: memtypes.LineAddr(i)}, 0)
	}
	if got := deliver(l, 1); len(got) != 2 {
		t.Fatalf("cycle 1 delivered %d, want 2", len(got))
	}
	if got := deliver(l, 2); len(got) != 2 {
		t.Fatalf("cycle 2 delivered %d, want 2", len(got))
	}
	if got := deliver(l, 3); len(got) != 1 {
		t.Fatalf("cycle 3 delivered %d, want 1", len(got))
	}
}

func TestFIFOOrder(t *testing.T) {
	l := New(5, 1)
	a := &memtypes.Request{Line: 1}
	b := &memtypes.Request{Line: 2}
	l.Send(a, 0)
	l.Send(b, 0)
	if got := deliver(l, 5); len(got) != 1 || got[0] != a {
		t.Fatalf("first delivery = %v, want a", got)
	}
	if got := deliver(l, 6); len(got) != 1 || got[0] != b {
		t.Fatalf("second delivery = %v, want b", got)
	}
}

func TestInvalidParamsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1, 0) should panic")
		}
	}()
	New(-1, 0)
}

func TestCounters(t *testing.T) {
	l := New(0, 8)
	l.Send(&memtypes.Request{}, 0)
	deliver(l, 0)
	if l.Sent != 1 || l.Delivered != 1 {
		t.Fatalf("sent=%d delivered=%d", l.Sent, l.Delivered)
	}
}

package memtypes

import (
	"testing"
	"testing/quick"
)

func TestLineRounding(t *testing.T) {
	if Addr(0).Line() != 0 {
		t.Fatal("line of 0")
	}
	if Addr(127).Line() != 0 {
		t.Fatal("addr 127 should be in line 0")
	}
	if Addr(128).Line() != 128 {
		t.Fatal("addr 128 should start line 1")
	}
	if LineAddr(256).Addr() != 256 {
		t.Fatal("round trip")
	}
}

func TestLineAlwaysAligned(t *testing.T) {
	f := func(a uint64) bool {
		return uint64(Addr(a).Line())%LineSize == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKindStrings(t *testing.T) {
	cases := map[Kind]string{
		Load: "load", Store: "store", RegBackup: "reg-backup", RegRestore: "reg-restore",
		Kind(99): "Kind(99)",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestHashPCRange(t *testing.T) {
	f := func(pc uint32) bool {
		h := HashPC(pc, 5)
		return h < 32 && h == HashPC(pc, 5)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHashPCDistributes(t *testing.T) {
	// Sequential instruction addresses (4 apart) should spread over the
	// 32-entry LM table without pathological clustering.
	seen := map[uint32]int{}
	for i := 0; i < 32; i++ {
		seen[HashPC(uint32(0x100+i*4), 5)]++
	}
	if len(seen) < 16 {
		t.Fatalf("32 sequential PCs map to only %d LM rows", len(seen))
	}
}

// TestRequestPoolRoundTrip proves the pool's two contracts: a recycled Get
// returns a fully zeroed object (pool order must be invisible to the
// simulation), and a steady-state Get/Put round trip allocates nothing.
func TestRequestPoolRoundTrip(t *testing.T) {
	var p RequestPool
	r := p.Get()
	r.Line, r.Kind, r.SM, r.WarpID, r.PC = 0x1000, Store, 3, 7, 42
	r.IssueCycle, r.ExtraLatency, r.RN = 99, 5, 600
	p.Put(r)
	if got := p.Get(); *got != (Request{}) {
		t.Fatalf("recycled Get returned non-zero Request: %+v", *got)
	} else {
		p.Put(got)
	}
	if n := p.Free(); n != 1 {
		t.Fatalf("Free() = %d, want 1", n)
	}
	perOp := testing.AllocsPerRun(4096, func() {
		req := p.Get()
		req.Line = 0x2000
		p.Put(req)
	})
	if perOp > 0 {
		t.Errorf("pool round trip allocates %.3f objects/op, want 0", perOp)
	}
}

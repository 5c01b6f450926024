package workload

import (
	"slices"
	"testing"
	"testing/quick"

	"github.com/linebacker-sim/linebacker/internal/memtypes"
)

func simpleKernel() *Kernel {
	return NewKernel("test",
		[]LoadSpec{
			load(Streaming, PerWarp, 0, 2, 0),
			load(Tiled, PerSM, 8*kb, 1, 1),
			load(Irregular, PerCTA, 4*kb, 2, 0),
			load(Tiled, Global, 2*kb, 1, 0),
			load(Tiled, PerWarp, 1*kb, 1, 0),
		},
		[]LoadSpec{streamStore()},
		1, 4, 100, 4, 16, 64)
}

func TestNewKernelAssignsPCs(t *testing.T) {
	k := simpleKernel()
	seen := map[uint32]bool{}
	for _, ins := range k.Body {
		if seen[ins.PC] {
			t.Fatalf("duplicate PC %#x", ins.PC)
		}
		seen[ins.PC] = true
	}
	// Every load's PC matches its body instruction's PC.
	for i, ins := range k.Body {
		if ins.Op != Compute {
			if k.Loads[ins.LoadIdx].PC != ins.PC {
				t.Fatalf("body[%d] PC %#x != load PC %#x", i, ins.PC, k.Loads[ins.LoadIdx].PC)
			}
		}
	}
}

func TestStreamingNeverRepeats(t *testing.T) {
	k := simpleKernel()
	seen := map[memtypes.LineAddr]bool{}
	for warp := 0; warp < 4; warp++ {
		for iter := 0; iter < 50; iter++ {
			for req := 0; req < k.Loads[0].Coalesced; req++ {
				a := k.Address(0, Ctx{SM: 0, CTASeq: 0, Warp: warp, Iter: iter}, req)
				if seen[a] {
					t.Fatalf("streaming address %#x repeated", a)
				}
				seen[a] = true
			}
		}
	}
}

func TestStreamingDisjointAcrossCTAs(t *testing.T) {
	k := simpleKernel()
	a := k.Address(0, Ctx{SM: 0, CTASeq: 0, Warp: 3, Iter: 99}, 1)
	b := k.Address(0, Ctx{SM: 1, CTASeq: 1, Warp: 0, Iter: 0}, 0)
	if a == b {
		t.Fatal("streams of different CTAs collide")
	}
}

func TestTiledFootprintBounded(t *testing.T) {
	k := simpleKernel()
	li := 1 // Tiled PerSM 8 KB
	lines := map[memtypes.LineAddr]bool{}
	for warp := 0; warp < 8; warp++ {
		for iter := 0; iter < 500; iter++ {
			lines[k.Address(li, Ctx{SM: 2, CTASeq: warp / 4, Warp: warp % 4, Iter: iter}, 0)] = true
		}
	}
	want := 8 * kb / memtypes.LineSize
	if len(lines) > want {
		t.Fatalf("tiled footprint %d lines exceeds working set %d", len(lines), want)
	}
	if len(lines) < want/2 {
		t.Fatalf("tiled footprint %d lines; sweep covers too little of %d", len(lines), want)
	}
}

func TestTiledReusesLines(t *testing.T) {
	k := simpleKernel()
	li := 1
	c := Ctx{SM: 0, CTASeq: 0, Warp: 0}
	first := k.Address(li, c, 0)
	wsLines := 8 * kb / memtypes.LineSize
	c.Iter = wsLines // one full sweep later
	if got := k.Address(li, c, 0); got != first {
		t.Fatalf("tiled sweep did not return to %#x (got %#x)", first, got)
	}
}

func TestScopeIsolation(t *testing.T) {
	k := simpleKernel()
	// PerSM: different SMs never share lines.
	li := 1
	a := k.Address(li, Ctx{SM: 0, CTASeq: 0, Warp: 0, Iter: 7}, 0)
	for iter := 0; iter < 200; iter++ {
		b := k.Address(li, Ctx{SM: 1, CTASeq: 0, Warp: 0, Iter: iter}, 0)
		if a == b {
			t.Fatal("PerSM scopes overlap across SMs")
		}
	}
	// Global: different SMs do share lines.
	gi := 3
	ga := k.Address(gi, Ctx{SM: 0, CTASeq: 0, Warp: 0, Iter: 3}, 0)
	gb := k.Address(gi, Ctx{SM: 5, CTASeq: 9, Warp: 2, Iter: 3}, 0)
	// Same iteration, phase 0: identical position in the shared set.
	if ga != gb {
		t.Fatalf("global scope not shared: %#x vs %#x", ga, gb)
	}
}

func TestPerWarpIsolation(t *testing.T) {
	k := simpleKernel()
	li := 4
	lines := map[memtypes.LineAddr]int{}
	for warp := 0; warp < 4; warp++ {
		for iter := 0; iter < 64; iter++ {
			a := k.Address(li, Ctx{SM: 0, CTASeq: 0, Warp: warp, Iter: iter}, 0)
			if prev, ok := lines[a]; ok && prev != warp {
				t.Fatalf("per-warp footprints overlap between warps %d and %d", prev, warp)
			}
			lines[a] = warp
		}
	}
}

func TestIrregularStaysInRange(t *testing.T) {
	k := simpleKernel()
	li := 2 // Irregular PerCTA 4 KB
	lines := map[memtypes.LineAddr]bool{}
	for iter := 0; iter < 3000; iter++ {
		for req := 0; req < 2; req++ {
			lines[k.Address(li, Ctx{SM: 0, CTASeq: 3, Warp: 1, Iter: iter}, req)] = true
		}
	}
	want := 4 * kb / memtypes.LineSize
	if len(lines) > want {
		t.Fatalf("irregular touched %d lines, range is %d", len(lines), want)
	}
	if len(lines) < want*3/4 {
		t.Fatalf("irregular touched only %d of %d lines; generator too narrow", len(lines), want)
	}
}

func TestAddressDeterminism(t *testing.T) {
	f := func(sm, cta, warp, iter uint8, req uint8) bool {
		k := simpleKernel()
		c := Ctx{SM: int(sm % 16), CTASeq: int(cta), Warp: int(warp % 4), Iter: int(iter)}
		for li := range k.Loads {
			r := int(req) % k.Loads[li].Coalesced
			if k.Address(li, c, r) != k.Address(li, c, r) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLoadRegionsDisjoint(t *testing.T) {
	k := simpleKernel()
	regions := map[uint64]int{}
	for li := range k.Loads {
		for iter := 0; iter < 100; iter++ {
			a := k.Address(li, Ctx{SM: 1, CTASeq: 2, Warp: 1, Iter: iter}, 0)
			r := uint64(a) >> loadRegionBits
			if prev, ok := regions[r]; ok && prev != li {
				t.Fatalf("loads %d and %d share region %d", prev, li, r)
			}
			regions[r] = li
		}
	}
}

func TestAllBenchmarksValid(t *testing.T) {
	bs := All()
	if len(bs) != 20 {
		t.Fatalf("benchmarks = %d, want 20", len(bs))
	}
	sensitive := 0
	names := map[string]bool{}
	for _, b := range bs {
		if names[b.Name] {
			t.Fatalf("duplicate benchmark %s", b.Name)
		}
		names[b.Name] = true
		if err := b.Kernel.Validate(); err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if b.Sensitive {
			sensitive++
		}
	}
	if sensitive != 10 {
		t.Fatalf("cache-sensitive apps = %d, want 10 (Table 2)", sensitive)
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("S2"); !ok {
		t.Fatal("S2 missing")
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("unknown benchmark found")
	}
	if len(Names()) != 20 {
		t.Fatal("Names() != 20")
	}
	if len(SensitiveNames()) != 10 {
		t.Fatal("SensitiveNames() != 10")
	}
}

// TestTableShared checks the build-once table: every lookup returns the
// same kernel, and the slice All returns is the caller's own, so
// overwriting or reordering it changes neither ByName nor Names.
func TestTableShared(t *testing.T) {
	a, _ := ByName("S2")
	b, _ := ByName("S2")
	if a.Kernel == nil || a.Kernel != b.Kernel {
		t.Fatalf("two ByName(S2) calls returned kernels %p and %p, want one shared kernel", a.Kernel, b.Kernel)
	}
	names := Names()
	all := All()
	all[0] = Benchmark{Name: "XX"}
	all[1], all[2] = all[2], all[1]
	if _, ok := ByName("XX"); ok {
		t.Fatal("a write to All's slice reached ByName")
	}
	if c, ok := ByName("S2"); !ok || c.Kernel != a.Kernel {
		t.Fatal("a write to All's slice replaced the shared S2 entry")
	}
	if got := Names(); !slices.Equal(got, names) {
		t.Fatalf("Names after writing to All's slice = %v, want %v", got, names)
	}
}

func TestValidateCatchesBadKernels(t *testing.T) {
	k := simpleKernel()
	k.Iterations = 0
	if k.Validate() == nil {
		t.Fatal("zero iterations accepted")
	}
	k = simpleKernel()
	k.Body[0].LoadIdx = 99
	if k.Validate() == nil {
		t.Fatal("out-of-range load index accepted")
	}
	k = simpleKernel()
	k.Loads[0].Coalesced = 0
	if k.Validate() == nil {
		t.Fatal("zero coalesced accepted")
	}
	k = simpleKernel()
	k.Loads[1].WorkingSetBytes = 10
	if k.Validate() == nil {
		t.Fatal("sub-line working set accepted")
	}
}

func TestRegsAccounting(t *testing.T) {
	k := simpleKernel()
	if k.RegsPerWarp() != 16 {
		t.Fatalf("RegsPerWarp = %d", k.RegsPerWarp())
	}
	if k.RegsPerCTA() != 64 {
		t.Fatalf("RegsPerCTA = %d", k.RegsPerCTA())
	}
}

func TestStringers(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{Streaming.String(), "streaming"},
		{Tiled.String(), "tiled"},
		{Irregular.String(), "irregular"},
		{Pattern(9).String(), "Pattern(9)"},
		{Global.String(), "global"},
		{PerSM.String(), "per-SM"},
		{PerCTA.String(), "per-CTA"},
		{PerWarp.String(), "per-warp"},
		{Scope(9).String(), "Scope(9)"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("got %q want %q", c.got, c.want)
		}
	}
}

func TestActiveAt(t *testing.T) {
	l := LoadSpec{Every: 0}
	if !l.ActiveAt(0) || !l.ActiveAt(7) {
		t.Fatal("Every=0 must fire every iteration")
	}
	l.Every = 3
	if !l.ActiveAt(0) || l.ActiveAt(1) || l.ActiveAt(2) || !l.ActiveAt(3) {
		t.Fatal("Every=3 pattern wrong")
	}
	l.Every = -1
	k := simpleKernel()
	k.Loads[0].Every = -1
	if k.Validate() == nil {
		t.Fatal("negative Every accepted")
	}
}

func TestStreamingWithEveryStaysDense(t *testing.T) {
	k := NewKernel("dense",
		[]LoadSpec{{Pattern: Streaming, Scope: PerWarp, Coalesced: 1, Every: 4}},
		nil, 1, 4, 64, 4, 16, 8)
	seen := map[memtypes.LineAddr]bool{}
	for iter := 0; iter < 64; iter += 4 {
		a := k.Address(0, Ctx{Iter: iter}, 0)
		if seen[a] {
			t.Fatalf("address %#x repeated", a)
		}
		seen[a] = true
	}
	// Consecutive firings are adjacent lines (iter compressed by Every).
	a0 := k.Address(0, Ctx{Iter: 0}, 0)
	a4 := k.Address(0, Ctx{Iter: 4}, 0)
	if a4 != a0+memtypes.LineSize {
		t.Fatalf("stream not dense: %#x then %#x", a0, a4)
	}
}

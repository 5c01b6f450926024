package icnt_test

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"github.com/linebacker-sim/linebacker/internal/config"
	"github.com/linebacker-sim/linebacker/internal/core"
	"github.com/linebacker-sim/linebacker/internal/icnt"
	"github.com/linebacker-sim/linebacker/internal/memtypes"
	"github.com/linebacker-sim/linebacker/internal/sim"
	"github.com/linebacker-sim/linebacker/internal/workload"
)

// TestLanesDeliverInReadySeqOrder drives links with interleaved sends from
// several latency offsets, each stream monotone in its own send cycle as
// the engine's are, and checks every delivery against an oracle that keeps
// all in-flight entries sorted by (ready, seq): each cycle delivers the
// oracle's first min(perCycle, ready) entries, in its order. Seeded, so a
// failure reproduces.
func TestLanesDeliverInReadySeqOrder(t *testing.T) {
	type sent struct {
		req        *memtypes.Request
		ready, seq int64
	}
	const sendCycles = 1000
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		latency := rng.Int63n(20)
		perCycle := 1 + rng.Intn(4)
		offsets := []int64{0, 1 + rng.Int63n(5), 10 + rng.Int63n(50)}
		if rng.Intn(2) == 0 {
			offsets = append(offsets, 100+rng.Int63n(100))
		}
		l := icnt.New(latency, perCycle)
		var oracle []sent
		var seq int64
		for cyc := int64(0); cyc < sendCycles || len(oracle) > 0; cyc++ {
			if cyc < sendCycles {
				for n := rng.Intn(4); n > 0; n-- {
					at := cyc + offsets[rng.Intn(len(offsets))]
					seq++
					req := &memtypes.Request{RN: int(seq)}
					l.Send(req, at)
					oracle = append(oracle, sent{req, at + latency, seq})
				}
			}
			// Deliver on roughly two cycles in three, so backlogs build up.
			if rng.Intn(3) == 0 {
				continue
			}
			slices.SortFunc(oracle, func(a, b sent) int {
				if c := cmp.Compare(a.ready, b.ready); c != 0 {
					return c
				}
				return cmp.Compare(a.seq, b.seq)
			})
			var want []*memtypes.Request
			for len(want) < perCycle && len(want) < len(oracle) && oracle[len(want)].ready <= cyc {
				want = append(want, oracle[len(want)].req)
			}
			oracle = oracle[len(want):]
			var got []*memtypes.Request
			l.DeliverEach(cyc, func(req *memtypes.Request) { got = append(got, req) })
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d cycle %d: delivered %v, want %v", seed, cyc, reqSeqs(got), reqSeqs(want))
			}
			if l.Pending() != len(oracle) {
				t.Fatalf("seed %d cycle %d: pending %d, want %d", seed, cyc, l.Pending(), len(oracle))
			}
		}
		if l.Lanes() > len(offsets) {
			t.Errorf("seed %d: %d lanes for %d monotone streams", seed, l.Lanes(), len(offsets))
		}
	}
}

func reqSeqs(reqs []*memtypes.Request) []int {
	out := make([]int, len(reqs))
	for i, r := range reqs {
		out[i] = r.RN
	}
	return out
}

// TestEngineLaneCounts runs S2 on the Table 1 machine and checks the lane
// count each link reaches: every request-path send is cycle+latency, one
// monotone stream, and the response path interleaves two, L2 hits sent
// l2Service ahead and DRAM completions sent at the current cycle.
func TestEngineLaneCounts(t *testing.T) {
	b, ok := workload.ByName("S2")
	if !ok {
		t.Fatal("workload S2 not found")
	}
	for _, pol := range []sim.Policy{sim.Baseline{}, core.New()} {
		cfg := config.Default()
		cfg.LB.WindowCycles = 5000
		g, err := sim.New(cfg, b.Kernel, pol)
		if err != nil {
			t.Fatal(err)
		}
		g.Run(60_000)
		toL2, fromL2 := g.Links()
		if toL2.Lanes() != 1 || fromL2.Lanes() > 2 {
			t.Errorf("%s: toL2 opened %d lanes, fromL2 %d; want 1 and at most 2", pol.Name(), toL2.Lanes(), fromL2.Lanes())
		}
		if toL2.Delivered == 0 || fromL2.Delivered == 0 {
			t.Errorf("%s: links idle (%d, %d deliveries)", pol.Name(), toL2.Delivered, fromL2.Delivered)
		}
		t.Logf("%s: toL2 %d lanes, %d deliveries; fromL2 %d lanes, %d deliveries",
			pol.Name(), toL2.Lanes(), toL2.Delivered, fromL2.Lanes(), fromL2.Delivered)
	}
}

package twin

import (
	"math"
	"strings"
	"testing"
)

// testModel builds a hand-written model exercising every curve.
func testModel() *Model {
	return &Model{
		Bench:       "T1",
		Windows:     3,
		BaseL1Bytes: 48 * 1024,
		MaxResident: 8,
		Base: []CachePoint{
			{L1Bytes: 16 * 1024, IPC: 1.0, MissRate: 0.60},
			{L1Bytes: 48 * 1024, IPC: 2.0, MissRate: 0.30},
			{L1Bytes: 96 * 1024, IPC: 3.0, MissRate: 0.10},
		},
		LB: []CachePoint{
			{L1Bytes: 16 * 1024, IPC: 1.5, MissRate: 0.50},
			{L1Bytes: 48 * 1024, IPC: 2.5, MissRate: 0.20},
			{L1Bytes: 96 * 1024, IPC: 3.5, MissRate: 0.05},
		},
		SWL:      []LimitPoint{{Limit: 1, IPC: 0.8}, {Limit: 4, IPC: 1.6}, {Limit: 8, IPC: 2.0}},
		VTT:      []LimitPoint{{Limit: 1, IPC: 2.1}, {Limit: 4, IPC: 2.4}, {Limit: 8, IPC: 2.5}},
		Band:     Bands{Cache: 0.10, SWL: 0.08, VTT: 0.06},
		Roofline: Roofline{IssueRoofIPC: 16},
	}
}

func TestEstimateAtAnchorsIsExact(t *testing.T) {
	m := testModel()
	for _, tc := range []struct {
		q    Query
		want float64
	}{
		{Query{}, 2.0}, // zero value = baseline at base L1
		{Query{L1Bytes: 16 * 1024}, 1.0},
		{Query{L1Bytes: 96 * 1024}, 3.0},
		{Query{LB: true}, 2.5},
		{Query{L1Bytes: 16 * 1024, LB: true}, 1.5},
		{Query{SWLLimit: 4}, 1.6},
		{Query{SWLLimit: 8}, 2.0},
		{Query{LB: true, VTTParts: 4}, 2.4},
	} {
		e := m.Estimate(tc.q)
		if !e.InEnvelope {
			t.Errorf("%+v: out of envelope: %s", tc.q, e.Reason)
			continue
		}
		if math.Abs(e.IPC-tc.want) > 1e-12 {
			t.Errorf("%+v: IPC = %v, want %v", tc.q, e.IPC, tc.want)
		}
		if e.Lo > e.IPC || e.Hi < e.IPC {
			t.Errorf("%+v: band [%v, %v] does not contain IPC %v", tc.q, e.Lo, e.Hi, e.IPC)
		}
	}
}

func TestEstimateInterpolatesBetweenAnchors(t *testing.T) {
	m := testModel()
	e := m.Estimate(Query{L1Bytes: 64 * 1024})
	if !e.InEnvelope {
		t.Fatalf("out of envelope: %s", e.Reason)
	}
	if e.IPC <= 2.0 || e.IPC >= 3.0 {
		t.Errorf("IPC %v not between the bracketing anchors (2.0, 3.0)", e.IPC)
	}
	if e.MissRate >= 0.30 || e.MissRate <= 0.10 {
		t.Errorf("miss rate %v not between anchors (0.10, 0.30)", e.MissRate)
	}
	if !strings.Contains(e.Basis, "cache[baseline]") {
		t.Errorf("basis %q does not name the curve", e.Basis)
	}
	// Log-space: the interpolated value at 64K must sit left of the linear
	// midpoint of the 48..96 segment in IPC terms.
	linX := (64.0 - 48.0) / (96.0 - 48.0)
	logX := logFrac(48, 96, 64)
	if logX <= linX {
		t.Errorf("log-space fraction %v should exceed linear %v on this segment", logX, linX)
	}

	// SWL midpoint is linear.
	e = m.Estimate(Query{SWLLimit: 2})
	if !e.InEnvelope {
		t.Fatalf("swl 2: out of envelope: %s", e.Reason)
	}
	want := 0.8 + (1.6-0.8)*(2.0-1.0)/(4.0-1.0)
	if math.Abs(e.IPC-want) > 1e-12 {
		t.Errorf("swl 2: IPC = %v, want %v", e.IPC, want)
	}
}

func TestEstimateOutOfEnvelope(t *testing.T) {
	m := testModel()
	for name, q := range map[string]Query{
		"l1 below range":      {L1Bytes: 8 * 1024},
		"l1 above range":      {L1Bytes: 256 * 1024},
		"swl with lb":         {SWLLimit: 4, LB: true},
		"swl at non-base l1":  {SWLLimit: 4, L1Bytes: 96 * 1024},
		"swl and vtt jointly": {SWLLimit: 4, VTTParts: 4},
		"vtt without lb":      {VTTParts: 4},
		"vtt at non-base l1":  {VTTParts: 4, LB: true, L1Bytes: 96 * 1024},
		"swl above range":     {SWLLimit: 9},
		"vtt above range":     {VTTParts: 9, LB: true},
		"negative l1":         {L1Bytes: -1},
	} {
		e := m.Estimate(q)
		if e.InEnvelope {
			t.Errorf("%s (%+v): expected out of envelope, got IPC %v", name, q, e.IPC)
		}
		if e.Reason == "" {
			t.Errorf("%s: out-of-envelope estimate must state a reason", name)
		}
		if e.IPC != 0 || e.Lo != 0 || e.Hi != 0 {
			t.Errorf("%s: out-of-envelope estimate must not carry values: %+v", name, e)
		}
	}
}

func TestEstimateDisabledAxes(t *testing.T) {
	m := testModel()
	m.SWL = nil
	m.VTT = nil
	if e := m.Estimate(Query{SWLLimit: 2}); e.InEnvelope {
		t.Errorf("swl estimate with no swl curve must be out of envelope")
	}
	if e := m.Estimate(Query{VTTParts: 2, LB: true}); e.InEnvelope {
		t.Errorf("vtt estimate with no vtt curve must be out of envelope")
	}
	// The cache axis keeps working.
	if e := m.Estimate(Query{}); !e.InEnvelope {
		t.Errorf("cache axis broke when limit axes were disabled: %s", e.Reason)
	}
}

func TestBandClampedToIssueRoof(t *testing.T) {
	m := testModel()
	m.Roofline.IssueRoofIPC = 2.1
	e := m.Estimate(Query{L1Bytes: 96 * 1024}) // raw IPC 3.0, Hi 3.3
	if !e.InEnvelope {
		t.Fatalf("out of envelope: %s", e.Reason)
	}
	if e.IPC > 2.1 || e.Hi > 2.1 {
		t.Errorf("estimate exceeds the issue roof: IPC %v Hi %v", e.IPC, e.Hi)
	}
	if e.Lo > e.IPC {
		t.Errorf("Lo %v above IPC %v after clamping", e.Lo, e.IPC)
	}
}

func TestBandOfFloorsAndScales(t *testing.T) {
	if b := bandOf(0); b != bandFloor {
		t.Errorf("zero LOO error: band %v, want floor %v", b, bandFloor)
	}
	if b := bandOf(0.10); b != 0.20 {
		t.Errorf("band %v, want 0.10 x margin 2", b)
	}
}

func TestDedupeSorted(t *testing.T) {
	got := dedupeSorted([]int{8, 1, 0, -3, 8, 4, 1})
	want := []int{1, 4, 8}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestSegmentFor(t *testing.T) {
	xs := []int{10, 20, 40}
	ge := func(v int) func(int) bool {
		return func(k int) bool { return xs[k] >= v }
	}
	for _, tc := range []struct{ v, want int }{
		{10, 0}, {15, 0}, {20, 0}, {21, 1}, {40, 1},
	} {
		if got := segmentFor(len(xs), ge(tc.v)); got != tc.want {
			t.Errorf("segmentFor(%d) = %d, want %d", tc.v, got, tc.want)
		}
	}
}

// Package twin is the analytical counterpart of the cycle-level simulator:
// a per-benchmark closed-form model, calibrated against real simulation
// runs, that answers configuration queries ("what if L1 were 64 KB / the
// SWL limit were 8 / Linebacker were off?") in microseconds instead of
// seconds.
//
// The paper already reduces each application to a small set of axes —
// per-load reuse vs effective cache size (Figures 2–3) and memory-bound vs
// compute-bound occupancy — so a model fit along exactly those axes covers
// most interactive queries. The contract (DESIGN.md §13) is that the twin
// must never be quietly wrong:
//
//   - every estimate carries a confidence band derived from the
//     calibration data itself (leave-one-out cross-validation of the
//     interpolant, times a safety margin, floored);
//   - every estimate states whether the query lies inside the calibrated
//     envelope — the axis ranges the model actually observed;
//   - a query outside the envelope is answered with InEnvelope=false and
//     a machine-readable reason, and callers (internal/serve, cmd/lbsweep)
//     fall back to full simulation instead of extrapolating.
//
// Calibration rides the fault-tolerant, memoised harness.Runner, so
// anchor runs are simulated once per store and reused across calibrations,
// restarts and replicas. Everything in a Model is a pure function of the
// simulator's deterministic results: calibrating twice — at any sweep-pool
// width, on any machine sharing the store — yields bit-identical models
// (test-enforced).
package twin

import (
	"fmt"
	"math"
	"sort"
)

// Arm names the two calibrated policy arms of the cache-size axis.
const (
	ArmBaseline = "baseline"
	ArmLB       = "lb"
)

// CachePoint is one calibrated anchor on the cache-size axis.
type CachePoint struct {
	// L1Bytes is the configured L1 capacity of the anchor run.
	L1Bytes int `json:"l1_bytes"`
	// EffectiveBytes is L1Bytes plus the average victim capacity the run
	// actually carved out of idle registers (zero for the baseline arm) —
	// the paper's "effective cache size" for this point.
	EffectiveBytes float64 `json:"effective_bytes"`
	// IPC is the measured instructions per cycle.
	IPC float64 `json:"ipc"`
	// MissRate is the measured L1 load miss fraction (misses over all L1
	// load accesses, pending hits counted as hits).
	MissRate float64 `json:"miss_rate"`
}

// LimitPoint is one calibrated anchor on an integer-limit axis (static
// CTA limit, VTT partition count).
type LimitPoint struct {
	Limit int     `json:"limit"`
	IPC   float64 `json:"ipc"`
}

// Roofline summarises the memory-bound vs compute-bound position of the
// benchmark at the base configuration — the occupancy axis of Figures 2–3.
type Roofline struct {
	// BytesPerInstr is off-chip traffic per retired instruction under the
	// baseline policy at the base L1 size.
	BytesPerInstr float64 `json:"bytes_per_instr"`
	// PeakBytesPerCycle is the configured DRAM bandwidth in bytes/cycle.
	PeakBytesPerCycle float64 `json:"peak_bytes_per_cycle"`
	// BandwidthRoofIPC is the IPC the DRAM bandwidth alone would allow.
	BandwidthRoofIPC float64 `json:"bandwidth_roof_ipc"`
	// IssueRoofIPC is the issue IPC ceiling of the whole machine: one warp
	// instruction per scheduler per cycle.
	IssueRoofIPC float64 `json:"issue_roof_ipc"`
	// MemBound reports whether the bandwidth roof is below the issue roof.
	MemBound bool `json:"mem_bound"`
}

// Bands holds the per-curve relative confidence half-widths the
// calibration derived (leave-one-out error × margin, floored).
type Bands struct {
	Cache float64 `json:"cache"` // shared by both cache-axis arms
	SWL   float64 `json:"swl"`
	VTT   float64 `json:"vtt"`
}

// Model is one benchmark's calibrated analytical twin. All curves are
// sorted by their x coordinate; estimates interpolate, never extrapolate.
type Model struct {
	Bench   string `json:"bench"`
	Windows int    `json:"windows"`
	// BaseL1Bytes is the L1 capacity of the runner's base configuration:
	// the SWL and VTT axes are calibrated at this size only.
	BaseL1Bytes int `json:"base_l1_bytes"`
	// MaxResident is the residency bound the SWL axis was clamped to.
	MaxResident int `json:"max_resident"`

	Base []CachePoint `json:"base"` // baseline arm over L1 sizes
	LB   []CachePoint `json:"lb"`   // linebacker arm over L1 sizes
	SWL  []LimitPoint `json:"swl"`  // static CTA limits at base L1
	VTT  []LimitPoint `json:"vtt"`  // linebacker VTT partition counts at base L1

	Band     Bands    `json:"band"`
	Roofline Roofline `json:"roofline"`
	// CalRuns counts the simulator executions the calibration requested
	// (memo/store hits included — it is the sweep size, not the miss count).
	CalRuns int `json:"cal_runs"`
}

// Query is one configuration question. The zero value asks for the
// baseline policy at the base configuration. Axes compose only as far as
// the calibration observed them: an unobserved combination (e.g. an SWL
// limit at a non-base L1 size) is out of envelope by construction.
type Query struct {
	// L1Bytes is the L1 capacity (0 = the model's base size).
	L1Bytes int `json:"l1_bytes,omitempty"`
	// SWLLimit is a static CTA limit (0 = unlimited). Calibrated at the
	// base L1 size under the baseline policy only.
	SWLLimit int `json:"swl_limit,omitempty"`
	// LB selects the Linebacker policy arm.
	LB bool `json:"lb,omitempty"`
	// VTTParts overrides Linebacker's MaxPartitions — the victim-capacity
	// axis (0 = the configured default). Requires LB, base L1.
	VTTParts int `json:"vtt_parts,omitempty"`
}

// Estimate is the twin's answer. When InEnvelope is false, IPC/Lo/Hi are
// zero and Reason says which envelope rule failed — the caller's cue to
// fall back to full simulation.
type Estimate struct {
	IPC      float64 `json:"ipc"`
	Lo       float64 `json:"lo"`
	Hi       float64 `json:"hi"`
	MissRate float64 `json:"miss_rate,omitempty"`

	InEnvelope bool   `json:"in_envelope"`
	Reason     string `json:"reason,omitempty"`
	// Basis names the curve and anchor segment the estimate interpolated,
	// for explainability ("cache[lb] 32768..65536 B", "swl 2..6").
	Basis string `json:"basis,omitempty"`
}

// out builds an out-of-envelope answer.
func out(format string, args ...any) Estimate {
	return Estimate{Reason: fmt.Sprintf(format, args...)}
}

// Estimate answers a query from the calibrated curves. It never simulates
// and never extrapolates: queries outside the calibrated envelope come
// back with InEnvelope=false and a reason.
func (m *Model) Estimate(q Query) Estimate {
	l1 := q.L1Bytes
	if l1 == 0 {
		l1 = m.BaseL1Bytes
	}
	switch {
	case q.SWLLimit < 0 || q.VTTParts < 0 || q.L1Bytes < 0:
		return out("negative axis value")
	case q.SWLLimit > 0 && q.LB:
		return out("swl axis calibrated under the baseline policy only")
	case q.SWLLimit > 0 && q.VTTParts > 0:
		return out("swl and vtt axes are not calibrated jointly")
	case q.SWLLimit > 0 && l1 != m.BaseL1Bytes:
		return out("swl axis calibrated at the base L1 size (%d B) only", m.BaseL1Bytes)
	case q.VTTParts > 0 && !q.LB:
		return out("vtt axis requires the linebacker arm")
	case q.VTTParts > 0 && l1 != m.BaseL1Bytes:
		return out("vtt axis calibrated at the base L1 size (%d B) only", m.BaseL1Bytes)
	}

	if q.SWLLimit > 0 {
		return m.estimateLimit("swl", m.SWL, q.SWLLimit, m.Band.SWL)
	}
	if q.VTTParts > 0 {
		return m.estimateLimit("vtt", m.VTT, q.VTTParts, m.Band.VTT)
	}

	arm, curve := ArmBaseline, m.Base
	if q.LB {
		arm, curve = ArmLB, m.LB
	}
	if len(curve) < 2 {
		return out("cache axis not calibrated for arm %s", arm)
	}
	lo, hi := curve[0].L1Bytes, curve[len(curve)-1].L1Bytes
	if l1 < lo || l1 > hi {
		return out("l1 %d B outside calibrated range [%d, %d]", l1, lo, hi)
	}
	i := segmentFor(len(curve), func(k int) bool { return curve[k].L1Bytes >= l1 })
	a, b := curve[i], curve[i+1]
	x := logFrac(float64(a.L1Bytes), float64(b.L1Bytes), float64(l1))
	ipc := lerp(a.IPC, b.IPC, x)
	miss := clamp01(lerp(a.MissRate, b.MissRate, x))
	return m.banded(ipc, miss, m.Band.Cache,
		fmt.Sprintf("cache[%s] %d..%d B", arm, a.L1Bytes, b.L1Bytes))
}

// estimateLimit interpolates an integer-limit curve linearly.
func (m *Model) estimateLimit(name string, curve []LimitPoint, limit int, band float64) Estimate {
	if len(curve) < 2 {
		return out("%s axis not calibrated", name)
	}
	lo, hi := curve[0].Limit, curve[len(curve)-1].Limit
	if limit < lo || limit > hi {
		return out("%s limit %d outside calibrated range [%d, %d]", name, limit, lo, hi)
	}
	i := segmentFor(len(curve), func(k int) bool { return curve[k].Limit >= limit })
	a, b := curve[i], curve[i+1]
	x := 0.0
	if b.Limit != a.Limit {
		x = float64(limit-a.Limit) / float64(b.Limit-a.Limit)
	}
	ipc := lerp(a.IPC, b.IPC, x)
	return m.banded(ipc, 0, band, fmt.Sprintf("%s %d..%d", name, a.Limit, b.Limit))
}

// banded wraps an interpolated IPC in its confidence band, clamped to the
// machine's hard issue roof (no estimate may exceed what the issue width
// can retire — the simulated truth cannot either, so clamping the band is
// sound).
func (m *Model) banded(ipc, miss, band float64, basis string) Estimate {
	e := Estimate{
		IPC:        ipc,
		Lo:         ipc * (1 - band),
		Hi:         ipc * (1 + band),
		MissRate:   miss,
		InEnvelope: true,
		Basis:      basis,
	}
	if roof := m.Roofline.IssueRoofIPC; roof > 0 {
		if e.IPC > roof {
			e.IPC = roof
		}
		if e.Hi > roof {
			e.Hi = roof
		}
		if e.Lo > roof {
			e.Lo = roof
		}
	}
	// IPC is non-negative by construction; a wide relative band must not
	// leak below that hard floor.
	if e.Lo < 0 {
		e.Lo = 0
	}
	return e
}

// segmentFor returns the index i of the curve segment [i, i+1] whose
// right anchor is the first satisfying ge; the caller guarantees the query
// is within range.
func segmentFor(n int, ge func(int) bool) int {
	i := sort.Search(n, ge)
	if i == 0 {
		return 0
	}
	if i >= n {
		return n - 2
	}
	return i - 1
}

// logFrac returns the position of v between a and b in log space.
func logFrac(a, b, v float64) float64 {
	if a <= 0 || b <= 0 || a == b {
		return 0
	}
	return (math.Log(v) - math.Log(a)) / (math.Log(b) - math.Log(a))
}

func lerp(a, b, x float64) float64 { return a + (b-a)*x }

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

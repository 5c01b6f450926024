package twin

import (
	"context"
	"fmt"
	"sort"

	"github.com/linebacker-sim/linebacker/internal/config"
	"github.com/linebacker-sim/linebacker/internal/core"
	"github.com/linebacker-sim/linebacker/internal/harness"
	"github.com/linebacker-sim/linebacker/internal/schemes"
	"github.com/linebacker-sim/linebacker/internal/sim"
	"github.com/linebacker-sim/linebacker/internal/workload"
)

// Axes selects the calibration anchors. A nil slice means the default
// anchor set; an empty non-nil slice disables that axis (its queries are
// then out of envelope and fall back to simulation).
type Axes struct {
	// L1KB lists the cache-size anchors in KB (default 16, 32, 48, 96,
	// 192 — brackets the Table 1 point and the Fig. 14 sweep range).
	L1KB []int
	// SWLLimits lists static CTA limits (default: 1, maxResident/4,
	// maxResident/2 and maxResident, deduplicated).
	SWLLimits []int
	// VTTParts lists Linebacker MaxPartitions anchors — the
	// victim-capacity axis (default 1, 4 and the configured maximum).
	VTTParts []int
}

// Options tunes a calibration. The zero value is production-ready.
type Options struct {
	Axes Axes
}

func (o Options) withDefaults() Options {
	if o.Axes.L1KB == nil {
		o.Axes.L1KB = []int{16, 32, 48, 96, 192}
	}
	return o
}

const (
	// bandFloor is the minimum relative confidence half-width: even a
	// perfectly linear calibration curve does not promise sub-5% accuracy
	// between anchors.
	bandFloor = 0.05
	// bandMargin multiplies the leave-one-out cross-validation error into
	// the band: the LOO error measures curvature at the anchors, and the
	// margin covers curvature between them.
	bandMargin = 2
)

// defaultSWLAnchors spreads anchors over [1, maxResident].
func defaultSWLAnchors(maxResident int) []int {
	if maxResident < 1 {
		return nil
	}
	return dedupeSorted([]int{1, maxResident / 4, maxResident / 2, maxResident})
}

func dedupeSorted(xs []int) []int {
	var out []int
	for _, x := range xs {
		if x >= 1 {
			out = append(out, x)
		}
	}
	sort.Ints(out)
	n := 0
	for _, x := range out {
		if n == 0 || out[n-1] != x {
			out[n] = x
			n++
		}
	}
	return out[:n]
}

// Calibrate fits one benchmark's analytical twin by running the anchor
// sweep through the runner. Runs are memoised (and, with a store attached,
// committed) like any other harness run, so repeated calibrations — across
// requests, processes and replicas — pay each anchor at most once.
//
// The returned model is a pure function of the anchor results, which are
// themselves bit-identical in both run modes, so
// calibration is deterministic by construction (test-enforced).
func Calibrate(ctx context.Context, r *harness.Runner, bench string, opt Options) (*Model, error) {
	opt = opt.withDefaults()
	b, ok := workload.ByName(bench)
	if !ok {
		return nil, fmt.Errorf("twin: unknown benchmark %q", bench)
	}
	baseCfg := r.Cfg
	m := &Model{
		Bench:       bench,
		Windows:     r.Windows,
		BaseL1Bytes: baseCfg.GPU.L1Bytes,
		MaxResident: sim.MaxResidentCTAs(&baseCfg.GPU, b.Kernel),
	}

	// Cache-size axis: both policy arms at every anchor.
	kbs := dedupeSorted(opt.Axes.L1KB)
	baseBPI := make([]float64, 0, len(kbs)) // baseline bytes/instr per anchor, for the roofline
	for _, kb := range kbs {
		cfg := baseCfg
		cfg.GPU.L1Bytes = kb * 1024
		key := fmt.Sprintf("twin|l1=%d", kb)
		base, err := r.RunCfg(ctx, cfg, key, bench, sim.Baseline{})
		if err != nil {
			return nil, fmt.Errorf("twin: calibrating %s l1=%dKB baseline: %w", bench, kb, err)
		}
		lbr, err := r.RunCfg(ctx, cfg, key, bench, core.New())
		if err != nil {
			return nil, fmt.Errorf("twin: calibrating %s l1=%dKB lb: %w", bench, kb, err)
		}
		m.CalRuns += 2
		m.Base = append(m.Base, cachePointOf(cfg.GPU.L1Bytes, base))
		m.LB = append(m.LB, cachePointOf(cfg.GPU.L1Bytes, lbr))
		bpi := 0.0
		if base.Instructions > 0 {
			bpi = float64(base.DRAM.TotalBytes()) / float64(base.Instructions)
		}
		baseBPI = append(baseBPI, bpi)
	}
	if len(m.Base) < 2 {
		return nil, fmt.Errorf("twin: %s: need at least 2 cache-size anchors, have %d", bench, len(m.Base))
	}

	// SWL occupancy axis at the base L1 size.
	swls := opt.Axes.SWLLimits
	if swls == nil {
		swls = defaultSWLAnchors(m.MaxResident)
	}
	for _, lim := range dedupeSorted(swls) {
		if lim > m.MaxResident {
			continue
		}
		res, err := r.RunCfg(ctx, baseCfg, "twin", bench, schemes.SWL{Limit: lim})
		if err != nil {
			return nil, fmt.Errorf("twin: calibrating %s swl=%d: %w", bench, lim, err)
		}
		m.CalRuns++
		m.SWL = append(m.SWL, LimitPoint{Limit: lim, IPC: res.IPC()})
	}

	// Victim-capacity axis: Linebacker with varying VTT partition caps.
	vtts := opt.Axes.VTTParts
	if vtts == nil {
		vtts = dedupeSorted([]int{1, 4, baseCfg.LB.MaxPartitions})
	}
	for _, parts := range dedupeSorted(vtts) {
		if parts > baseCfg.LB.MaxPartitions {
			continue
		}
		cfg := baseCfg
		cfg.LB.MaxPartitions = parts
		res, err := r.RunCfg(ctx, cfg, fmt.Sprintf("twin|vttp=%d", parts), bench, core.New())
		if err != nil {
			return nil, fmt.Errorf("twin: calibrating %s vtt=%d: %w", bench, parts, err)
		}
		m.CalRuns++
		m.VTT = append(m.VTT, LimitPoint{Limit: parts, IPC: res.IPC()})
	}

	for _, pts := range [][]CachePoint{m.Base, m.LB} {
		for _, p := range pts {
			if p.IPC <= 0 {
				return nil, fmt.Errorf("twin: %s: anchor at l1=%d B retired nothing (IPC 0); benchmark cannot be modelled", bench, p.L1Bytes)
			}
		}
	}

	m.Band = Bands{
		Cache: bandOf(looCache(m.Base, m.LB)),
		SWL:   bandOf(looLimit(m.SWL)),
		VTT:   bandOf(looLimit(m.VTT)),
	}
	m.Roofline = rooflineOf(&baseCfg, m, baseBPI)
	return m, nil
}

// cachePointOf projects one anchor run onto the cache curve.
func cachePointOf(l1Bytes int, res *sim.Result) CachePoint {
	miss := 0.0
	if total := res.L1.TotalLoadAccesses(); total > 0 {
		miss = float64(res.L1.LoadMisses) / float64(total)
	}
	return CachePoint{
		L1Bytes:        l1Bytes,
		EffectiveBytes: float64(l1Bytes) + res.Extra["lb_victim_bytes_avg"],
		IPC:            res.IPC(),
		MissRate:       miss,
	}
}

// looCache returns the maximum leave-one-out relative IPC error across the
// interior anchors of the cache arms: each interior anchor is predicted
// from its neighbours with the same log-linear interpolant queries use,
// and the worst relative miss is the curvature signal the band scales.
func looCache(curves ...[]CachePoint) float64 {
	maxErr := 0.0
	for _, pts := range curves {
		for i := 1; i < len(pts)-1; i++ {
			a, b, p := pts[i-1], pts[i+1], pts[i]
			if p.IPC <= 0 {
				continue
			}
			x := logFrac(float64(a.L1Bytes), float64(b.L1Bytes), float64(p.L1Bytes))
			pred := lerp(a.IPC, b.IPC, x)
			if e := relErr(pred, p.IPC); e > maxErr {
				maxErr = e
			}
		}
	}
	return maxErr
}

// looLimit is looCache for the linear integer-limit curves.
func looLimit(pts []LimitPoint) float64 {
	maxErr := 0.0
	for i := 1; i < len(pts)-1; i++ {
		a, b, p := pts[i-1], pts[i+1], pts[i]
		if p.IPC <= 0 || b.Limit == a.Limit {
			continue
		}
		x := float64(p.Limit-a.Limit) / float64(b.Limit-a.Limit)
		pred := lerp(a.IPC, b.IPC, x)
		if e := relErr(pred, p.IPC); e > maxErr {
			maxErr = e
		}
	}
	return maxErr
}

func relErr(pred, actual float64) float64 {
	if actual == 0 {
		return 0
	}
	e := (pred - actual) / actual
	if e < 0 {
		e = -e
	}
	return e
}

// bandOf turns a LOO error into the published half-width.
func bandOf(looErr float64) float64 {
	band := looErr * bandMargin
	if band < bandFloor {
		band = bandFloor
	}
	return band
}

// rooflineOf positions the benchmark between the machine's two roofs using
// the baseline anchor nearest the base L1 size.
func rooflineOf(cfg *config.Config, m *Model, baseBPI []float64) Roofline {
	g := &cfg.GPU
	rl := Roofline{
		PeakBytesPerCycle: g.BytesPerCycle(),
		IssueRoofIPC:      float64(g.NumSMs * g.NumSchedulers),
	}
	// Nearest baseline anchor to the base size (the curves are sorted).
	best := -1
	for i, p := range m.Base {
		if best < 0 || absInt(p.L1Bytes-m.BaseL1Bytes) < absInt(m.Base[best].L1Bytes-m.BaseL1Bytes) {
			best = i
		}
	}
	if best >= 0 && best < len(baseBPI) {
		rl.BytesPerInstr = baseBPI[best]
	}
	if rl.BytesPerInstr > 0 {
		rl.BandwidthRoofIPC = rl.PeakBytesPerCycle / rl.BytesPerInstr
		rl.MemBound = rl.BandwidthRoofIPC < rl.IssueRoofIPC
	}
	return rl
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

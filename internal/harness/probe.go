package harness

import (
	"context"

	"github.com/linebacker-sim/linebacker/internal/memtypes"
	"github.com/linebacker-sim/linebacker/internal/sim"
	"github.com/linebacker-sim/linebacker/internal/stats"
)

// ProbeResult carries the per-load statistics of an instrumented baseline
// run, averaged over SMs (Figures 2 and 3).
type ProbeResult struct {
	Loads []stats.LoadStats
}

// probePolicy is the baseline policy under the name probe runs report.
type probePolicy struct{ sim.Baseline }

// Name implements sim.Policy.
func (probePolicy) Name() string { return "probe" }

// RunProbe executes the benchmark under the baseline policy with a per-load
// probe attached to every SM and returns merged per-load statistics. The
// run goes through Simulate like every other point, so it sees the
// runner's deadline, watchdog, checker and chaos settings. A non-nil error
// is always a *RunError.
func (r *Runner) RunProbe(ctx context.Context, bench string) (*ProbeResult, error) {
	key := "probe|" + bench
	r.mu.Lock()
	if res, ok := r.probeCache[key]; ok {
		r.mu.Unlock()
		return res, nil
	}
	r.mu.Unlock()

	pol := probePolicy{}
	select {
	case r.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, &RunError{Bench: bench, Policy: pol.Name(), Phase: PhaseQueue,
			Err: context.Cause(ctx)}
	}
	var probes []*stats.LoadProbe
	_, err := r.execute(ctx, r.Cfg, "", bench, pol, func(g *sim.GPU) {
		for _, smx := range g.SMs() {
			p := stats.NewLoadProbe(int64(r.Cfg.LB.WindowCycles))
			probes = append(probes, p)
			smx.Probe = func(warpSlot int, pc uint32, line memtypes.LineAddr, isStore bool, cycle int64) {
				if !isStore {
					p.Observe(pc, line, cycle)
				}
			}
		}
	})
	<-r.sem
	if err != nil {
		return nil, err
	}

	res := &ProbeResult{Loads: mergeProbes(probes)}
	r.mu.Lock()
	r.probeCache[key] = res
	r.mu.Unlock()
	return res, nil
}

// MustRunProbe is RunProbe with a background context, panicking on failure.
// The panic value is the *RunError.
func (r *Runner) MustRunProbe(bench string) *ProbeResult {
	res, err := r.RunProbe(context.Background(), bench)
	if err != nil {
		panic(err)
	}
	return res
}

// mergeProbes averages per-PC statistics across SMs.
func mergeProbes(probes []*stats.LoadProbe) []stats.LoadStats {
	type acc struct {
		s stats.LoadStats
		n int
	}
	accs := map[uint32]*acc{}
	var order []uint32
	for _, p := range probes {
		for _, l := range p.Results() {
			a := accs[l.PC]
			if a == nil {
				a = &acc{s: stats.LoadStats{PC: l.PC}}
				accs[l.PC] = a
				order = append(order, l.PC)
			}
			a.s.AvgAccesses += l.AvgAccesses
			a.s.AvgReusedBytes += l.AvgReusedBytes
			a.s.AvgUniqueBytes += l.AvgUniqueBytes
			a.s.ReaccessRatio += l.ReaccessRatio
			a.n++
		}
	}
	var out []stats.LoadStats
	for _, pc := range order {
		a := accs[pc]
		n := float64(a.n)
		out = append(out, stats.LoadStats{
			PC:             pc,
			AvgAccesses:    a.s.AvgAccesses / n,
			AvgReusedBytes: a.s.AvgReusedBytes / n,
			AvgUniqueBytes: a.s.AvgUniqueBytes / n,
			ReaccessRatio:  a.s.ReaccessRatio / n,
		})
	}
	// Keep top-accessed first, as stats.LoadProbe.Results does.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].AvgAccesses > out[j-1].AvgAccesses; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

package harness

import (
	"fmt"

	"github.com/linebacker-sim/linebacker/internal/config"
	"github.com/linebacker-sim/linebacker/internal/core"
	"github.com/linebacker-sim/linebacker/internal/schemes"
	"github.com/linebacker-sim/linebacker/internal/sim"
	"github.com/linebacker-sim/linebacker/internal/stats"
	"github.com/linebacker-sim/linebacker/internal/workload"
)

// Experiment is one reproducible paper table/figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(r *Runner) *Table
}

// RunSafe executes the experiment under the runner's fault barrier: a
// failed point (which experiment code raises by panicking with the
// *RunError from a Must* method) comes back as that error instead of
// crashing the caller. CLIs use it to print diagnostics and exit non-zero.
func (e Experiment) RunSafe(r *Runner) (tab *Table, err error) {
	defer func() {
		if p := recover(); p != nil {
			if re, ok := p.(error); ok {
				tab, err = nil, re
				return
			}
			//lbvet:panic non-error panic values are not ours; re-raise for the test harness or crash reporter
			panic(p)
		}
	}()
	return e.Run(r), nil
}

// Experiments returns every reproduced table and figure in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", "Simulation configuration", Table1},
		{"table2", "Benchmarks and cache sensitivity", Table2},
		{"table3", "Linebacker microarchitectural configuration", Table3},
		{"fig1", "Cold vs capacity/conflict miss breakdown", Fig1},
		{"fig2", "Per-SM reused working set of top-4 loads", Fig2},
		{"fig3", "Per-SM streaming data size", Fig3},
		{"fig4", "Statically and dynamically unused register file", Fig4},
		{"fig5", "Performance of enhanced (idealised) L1 cache", Fig5},
		{"fig9", "Idle register file used as victim cache", Fig9},
		{"fig10", "VTT partition set-associativity sweep", Fig10},
		{"fig11", "Linebacker performance breakdown (ablation)", Fig11},
		{"fig12", "Performance vs previous approaches", Fig12},
		{"fig13", "L1/victim hit, miss and bypass breakdown", Fig13},
		{"fig14", "L1 cache size impact", Fig14},
		{"fig15", "Combinations of previous works", Fig15},
		{"fig16", "Register file bank conflicts", Fig16},
		{"fig17", "Off-chip memory traffic", Fig17},
		{"fig18", "Energy consumption", Fig18},
		{"ext-ccws", "Extension: CCWS vs Best-SWL vs Linebacker", ExtCCWS},
	}
}

// ExperimentByID finds an experiment.
func ExperimentByID(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// lb returns a fresh full Linebacker policy (fresh per call: policies are
// stateless factories, state lives in Attach).
func lb() sim.Policy { return core.New() }

func svc() sim.Policy { return core.NewWith(core.Options{Selection: true}) }
func vc() sim.Policy  { return core.NewWith(core.Options{Selection: false}) }

// Table1 prints the simulated GPU configuration (Table 1).
func Table1(r *Runner) *Table {
	g := &r.Cfg.GPU
	t := &Table{ID: "table1", Title: "Simulation configuration", Header: []string{"Parameter", "Value"}}
	t.AddRow("# of SMs", fmt.Sprint(g.NumSMs))
	t.AddRow("Clock freq.", fmt.Sprintf("%d MHz", g.ClockMHz))
	t.AddRow("SIMD width", fmt.Sprint(g.SIMDWidth))
	t.AddRow("Max threads/warps/CTAs per SM", fmt.Sprintf("%d/%d/%d", g.MaxThreadsPerSM, g.MaxWarpsPerSM, g.MaxCTAsPerSM))
	t.AddRow("Warp scheduling", fmt.Sprintf("GTO, %d schedulers per SM", g.NumSchedulers))
	t.AddRow("Register file/SM", fmt.Sprintf("%d KB", g.RegFileBytes/1024))
	t.AddRow("Shared memory/SM", fmt.Sprintf("%d KB", g.SharedMemBytes/1024))
	t.AddRow("L1 cache size/SM", fmt.Sprintf("%d KB, %d-way, 128B line, %d MSHRs", g.L1Bytes/1024, g.L1Ways, g.L1MSHRs))
	t.AddRow("L2 shared cache", fmt.Sprintf("%d-way, %d KB", g.L2Ways, g.L2Bytes/1024))
	t.AddRow("Off-chip DRAM bandwidth", fmt.Sprintf("%.1f GB/s", g.DRAMBandwidthGBs))
	t.AddRow("DRAM timing", fmt.Sprintf("RCD=%g,RP=%g,RC=%g,RRD=%g,CL=%g,WR=%g,RAS=%g",
		g.DRAM.RCD, g.DRAM.RP, g.DRAM.RC, g.DRAM.RRD, g.DRAM.CL, g.DRAM.WR, g.DRAM.RAS))
	return t
}

// Table3 prints the Linebacker configuration (Table 3).
func Table3(r *Runner) *Table {
	l := &r.Cfg.LB
	e := &r.Cfg.Energy
	t := &Table{ID: "table3", Title: "Linebacker microarchitectural configuration", Header: []string{"Parameter", "Value"}}
	t.AddRow("IPC & per-load locality monitoring period", fmt.Sprintf("%d cycles", l.WindowCycles))
	t.AddRow("Cache hit threshold", pct(l.HitThreshold))
	t.AddRow("IPC variation bounds", fmt.Sprintf("Upper: %+.2f, Lower: %+.2f", l.IPCVarUpper, l.IPCVarLower))
	t.AddRow("VTT configuration", fmt.Sprintf("%d-way set-associative VP / %d VPs", l.VTTWays, l.MaxPartitions))
	t.AddRow("VP access latency", fmt.Sprintf("%d cycles", l.VPAccessLatency))
	t.AddRow("CTA manager access energy", fmt.Sprintf("%.2f pJ", e.CTAManagerAccessPJ))
	t.AddRow("HPC access energy", fmt.Sprintf("%.2f pJ", e.HPCAccessPJ))
	t.AddRow("LM access energy", fmt.Sprintf("%.2f pJ", e.LMAccessPJ))
	t.AddRow("VTT access energy", fmt.Sprintf("%.2f pJ", e.VTTAccessPJ))
	return t
}

// cfgWithL1 clones the runner config with a different L1 size.
func cfgWithL1(base config.Config, kb int) config.Config {
	base.GPU.L1Bytes = kb * 1024
	return base
}

// Table2 reproduces the cache-sensitivity classification: apps >30 % faster
// with a 192 KB L1 than with the 48 KB baseline are cache-sensitive.
func Table2(r *Runner) *Table {
	t := &Table{ID: "table2", Title: "Benchmarks and cache sensitivity (192 KB vs 48 KB L1)",
		Header: []string{"App", "Description", "Suite", "Speedup@192KB", "Class(measured)", "Class(paper)"}}
	speedups := r.MustForEachBench(func(bench string) float64 {
		base := r.MustRun(bench, sim.Baseline{})
		big := r.MustRunCfg(cfgWithL1(r.Cfg, 192), "l1=192", bench, sim.Baseline{})
		return Speedup(big, base)
	})
	for i, b := range workload.All() {
		cls := "insensitive"
		if speedups[i] > 1.30 {
			cls = "sensitive"
		}
		want := "insensitive"
		if b.Sensitive {
			want = "sensitive"
		}
		t.AddRow(b.Name, b.Desc, b.Suite, f2(speedups[i]), cls, want)
	}
	return t
}

// Fig1 reproduces the cold vs capacity/conflict miss breakdown.
func Fig1(r *Runner) *Table {
	t := &Table{ID: "fig1", Title: "L1 miss breakdown (baseline 48 KB)",
		Header: []string{"App", "ColdMissRatio", "2CMissRatio", "TotalMissRatio", "2C/Total"}}
	var coldR, ccR, totR []float64
	for _, name := range workload.Names() {
		res := r.MustRun(name, sim.Baseline{})
		// Classified misses exclude merged pending hits (which the paper's
		// counters also fold into the first miss).
		total := float64(res.L1.TotalLoadAccesses())
		if total == 0 {
			continue
		}
		cold := float64(res.L1.ColdMisses) / total
		cc := float64(res.L1.CapConfMisses+res.L1.LoadPendingHits) / total
		miss := cold + cc
		share := 0.0
		if miss > 0 {
			share = cc / miss
		}
		coldR = append(coldR, cold)
		ccR = append(ccR, cc)
		totR = append(totR, miss)
		t.AddRow(name, pct(cold), pct(cc), pct(miss), pct(share))
	}
	t.AddRow("Avg", pct(stats.Mean(coldR)), pct(stats.Mean(ccR)), pct(stats.Mean(totR)),
		pct(stats.Mean(ccR)/stats.Mean(totR)))
	t.Notes = append(t.Notes, "paper: avg total 66.6%, avg 2C 44.6%, 2C share 67.0%; merged (pending) re-misses are counted as capacity re-references")
	return t
}

// Fig2 reproduces the reused working set of the top-4 loads per SM.
func Fig2(r *Runner) *Table {
	t := &Table{ID: "fig2", Title: "Per-SM reused working set, top-4 non-streaming loads (KB/window)",
		Header: []string{"App", "ReusedWS(KB)", ">L1(48KB)?"}}
	exceed := 0
	for _, name := range workload.Names() {
		p := r.MustRunProbe(name)
		ws := stats.TopReusedWorkingSet(p.Loads, 4)
		over := ""
		if ws > 48*1024 {
			over = "yes"
			exceed++
		}
		t.AddRow(name, kbs(ws), over)
	}
	t.Notes = append(t.Notes, fmt.Sprintf("%d/20 apps exceed the 48 KB L1 (paper: 13/20)", exceed))
	return t
}

// Fig3 reproduces the per-SM streaming data size.
func Fig3(r *Runner) *Table {
	t := &Table{ID: "fig3", Title: "Per-SM streaming data size (KB/window)",
		Header: []string{"App", "Streaming(KB)", ">16KB?", ">L1?"}}
	over16, overL1 := 0, 0
	for _, name := range workload.Names() {
		p := r.MustRunProbe(name)
		sb := stats.StreamingBytes(p.Loads)
		m16, mL1 := "", ""
		if sb > 16*1024 {
			m16 = "yes"
			over16++
		}
		if sb > float64(r.Cfg.GPU.L1Bytes) {
			mL1 = "yes"
			overL1++
		}
		t.AddRow(name, kbs(sb), m16, mL1)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d/20 apps stream >16 KB (paper: 9/20); %d exceed the cache (paper: BI, LI, SR2, 2D, HS)", over16, overL1))
	return t
}

// Fig4 reproduces statically and dynamically unused register file sizes.
func Fig4(r *Runner) *Table {
	t := &Table{ID: "fig4", Title: "Unused register file under Best-SWL (KB)",
		Header: []string{"App", "SUR(KB)", "BestSWL", "DUR(KB)"}}
	var surs, durs []float64
	for _, name := range workload.Names() {
		b, _ := workload.ByName(name)
		sur := float64(schemes.SURBytes(&r.Cfg.GPU, b.Kernel))
		lim, _ := r.MustBestSWL(name)
		dur := float64(schemes.DURBytes(&r.Cfg.GPU, b.Kernel, lim))
		surs = append(surs, sur)
		durs = append(durs, dur)
		t.AddRow(name, kbs(sur), fmt.Sprint(lim), kbs(dur))
	}
	t.AddRow("Avg", kbs(stats.Mean(surs)), "", kbs(stats.Mean(durs)))
	t.Notes = append(t.Notes, "paper: SUR 4-144 KB (avg 87.1 KB); DUR 27-173 KB (avg 58.7 KB) in 13/20 apps")
	return t
}

// Fig5 reproduces the idealised CacheExt study.
func Fig5(r *Runner) *Table {
	t := &Table{ID: "fig5", Title: "Idealised enhanced-L1 performance (normalized to baseline)",
		Header: []string{"App", "Best-SWL", "CacheExt", "Best-SWL+CacheExt"}}
	var sw, ce, both []float64
	for _, name := range workload.Names() {
		base := r.MustRun(name, sim.Baseline{})
		lim, swl := r.MustBestSWL(name)
		ext := r.MustRun(name, schemes.CacheExt{})
		combo := r.MustRun(name, schemes.Combine(
			fmt.Sprintf("Best-SWL+CacheExt(%d)", lim),
			schemes.CacheExt{DURLimit: lim}, schemes.SWL{Limit: lim}))
		s1, s2, s3 := Speedup(swl, base), Speedup(ext, base), Speedup(combo, base)
		sw = append(sw, s1)
		ce = append(ce, s2)
		both = append(both, s3)
		t.AddRow(name, f2(s1), f2(s2), f2(s3))
	}
	t.AddRow("GM", f2(GeoMean(sw)), f2(GeoMean(ce)), f2(GeoMean(both)))
	t.Notes = append(t.Notes, "paper GM: Best-SWL 1.115, CacheExt 1.543, Best-SWL+CacheExt 1.770")
	return t
}

// Fig9 reproduces the idle-register victim space and monitoring length.
func Fig9(r *Runner) *Table {
	t := &Table{ID: "fig9", Title: "Idle register file space used as victim cache",
		Header: []string{"App", "StaticVictim(KB)", "DynamicVictim(KB)", "MonitorWindows"}}
	var st, dy []float64
	for _, name := range workload.Names() {
		b, _ := workload.ByName(name)
		res := r.MustRun(name, lb())
		// Static victim space: partitions that fit above the live registers
		// at full residency (i.e. without any throttling).
		staticBytes := staticVictimBytes(&r.Cfg, b.Kernel)
		avg := res.Extra["lb_victim_bytes_avg"]
		dynamic := avg - staticBytes
		if dynamic < 0 {
			dynamic = 0
		}
		st = append(st, staticBytes)
		dy = append(dy, dynamic)
		t.AddRow(name, kbs(staticBytes), kbs(dynamic), fmt.Sprintf("%.0f", res.Extra["lb_monitor_windows"]))
	}
	t.AddRow("Avg", kbs(stats.Mean(st)), kbs(stats.Mean(dy)), "")
	t.Notes = append(t.Notes, "paper: avg static 88.5 KB, avg dynamic 48.5 KB; most apps finish monitoring in 2 windows")
	return t
}

// staticVictimBytes computes the victim capacity available from statically
// unused registers alone (whole 24 KB partitions above the live registers).
func staticVictimBytes(cfg *config.Config, k *workload.Kernel) float64 {
	resident := sim.MaxResidentCTAs(&cfg.GPU, k)
	lrn := resident*k.RegsPerCTA() - 1
	partRegs := (cfg.GPU.L1Bytes / (config.LineSize * cfg.GPU.L1Ways)) * cfg.LB.VTTWays
	parts := 0
	for n := 0; n < cfg.LB.MaxPartitions; n++ {
		base := cfg.LB.RegOffset + 1 + n*partRegs
		if base > lrn && base+partRegs-1 <= cfg.GPU.WarpRegisters()-1 {
			parts++
		}
	}
	return float64(parts * partRegs * config.LineSize)
}

// Fig10 reproduces the VTT partition associativity sweep.
func Fig10(r *Runner) *Table {
	t := &Table{ID: "fig10", Title: "VTT partition set associativity: utilization and performance",
		Header: []string{"VPWays", "IdleRFUtilization", "GM speedup vs Best-SWL"}}
	for _, ways := range []int{1, 2, 4, 8, 16, 32} {
		pol := func() sim.Policy {
			return core.NewWith(core.Options{Selection: true, Throttling: true, VTTWays: ways})
		}
		var speedups, utils []float64
		for _, name := range workload.Names() {
			_, swl := r.MustBestSWL(name)
			res := r.MustRun(name, namedPolicy{fmt.Sprintf("LB-vtt%d", ways), pol()})
			speedups = append(speedups, Speedup(res, swl))
			unused := res.Extra["lb_unused_bytes_avg"]
			if unused > 0 {
				utils = append(utils, res.Extra["lb_victim_bytes_avg"]/unused)
			}
		}
		t.AddRow(fmt.Sprint(ways), pct(stats.Mean(utils)), f2(GeoMean(speedups)))
	}
	t.Notes = append(t.Notes, "paper: best at 4-way (1.29 over Best-SWL, 88.5% utilization); 1-way utilizes 92.8% but searches slowly; 16-way wastes space (71.1%)")
	return t
}

// namedPolicy renames a policy for cache keying.
type namedPolicy struct {
	name string
	p    sim.Policy
}

func (n namedPolicy) Name() string                   { return n.name }
func (n namedPolicy) Attach(sm *sim.SM) sim.SMPolicy { return n.p.Attach(sm) }

// Fig11 reproduces the ablation breakdown.
func Fig11(r *Runner) *Table {
	t := &Table{ID: "fig11", Title: "Linebacker breakdown (normalized to Best-SWL)",
		Header: []string{"App", "VictimCaching", "SelectiveVC", "Throttling+SVC(LB)"}}
	var a, b, c []float64
	for _, name := range workload.Names() {
		_, swl := r.MustBestSWL(name)
		v1 := Speedup(r.MustRun(name, vc()), swl)
		v2 := Speedup(r.MustRun(name, svc()), swl)
		v3 := Speedup(r.MustRun(name, lb()), swl)
		a = append(a, v1)
		b = append(b, v2)
		c = append(c, v3)
		t.AddRow(name, f2(v1), f2(v2), f2(v3))
	}
	t.AddRow("GM", f2(GeoMean(a)), f2(GeoMean(b)), f2(GeoMean(c)))
	t.Notes = append(t.Notes, "paper: SVC gains >7% over VC in BI, BC, BG, SR2, SP; full LB gains 7.7% over SVC")
	return t
}

// Fig12 reproduces the headline comparison.
func Fig12(r *Runner) *Table {
	t := &Table{ID: "fig12", Title: "Performance comparison (normalized to Best-SWL)",
		Header: []string{"App", "Baseline", "Best-SWL", "PCAL", "CERF", "Linebacker"}}
	pols := []func() sim.Policy{
		func() sim.Policy { return sim.Baseline{} },
		nil, // Best-SWL handled specially
		func() sim.Policy { return schemes.PCAL{} },
		func() sim.Policy { return schemes.CERF{} },
		lb,
	}
	sums := make([][]float64, len(pols))
	for _, name := range workload.Names() {
		_, swl := r.MustBestSWL(name)
		row := []string{name}
		for i, pf := range pols {
			var s float64
			if pf == nil {
				s = 1.0
			} else {
				s = Speedup(r.MustRun(name, pf()), swl)
			}
			sums[i] = append(sums[i], s)
			row = append(row, f2(s))
		}
		t.AddRow(row...)
	}
	gm := []string{"GM"}
	for _, s := range sums {
		gm = append(gm, f2(GeoMean(s)))
	}
	t.AddRow(gm...)
	t.Notes = append(t.Notes, "paper GM vs Best-SWL: Baseline 0.90 (SWL +11.5% over baseline), PCAL 1.076, CERF 1.196, Linebacker 1.290")
	return t
}

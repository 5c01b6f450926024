package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"github.com/linebacker-sim/linebacker/internal/stats"
)

// Workload names are the benchmark's contract with BENCHMARK.json.
const (
	wFig12 = "fig12-fast"
	wPaper = "paper-16sm"
	wSweep = "sweep20"
	wServe = "serve-mixed"
)

var (
	simWorkloads = []string{wFig12, wPaper, wSweep}
	allWorkloads = []string{wFig12, wPaper, wSweep, wServe}
)

// metric declares one reported number. End-to-end metrics carry the bound
// by which their median may worsen before a change counts as a regression;
// per-layer metrics name the end-to-end metric they are expected to move
// and the workload on which it should move. measuredOn lists the workloads
// whose runs exercise the metric's layer; the others report it as 0.
type metric struct {
	name, unit, better string
	bound              float64
	layer              bool
	moves, on          string
	measuredOn         []string
}

func e2e(name, unit, better string, bound float64) metric {
	return metric{name: name, unit: unit, better: better, bound: bound, measuredOn: allWorkloads}
}

func layer(name, unit, better, moves, on string, measuredOn []string) metric {
	return metric{name: name, unit: unit, better: better, layer: true, moves: moves, on: on, measuredOn: measuredOn}
}

var (
	serveOnly = []string{wServe}
	// stageList names the GPU.Step stages the strict replay times.
	stageList = [...]string{"dispatch", "sm", "l2", "dram", "response"}
)

// metrics is every metric the reporter can print, in print order.
var metrics = func() []metric {
	ms := []metric{
		e2e("wall_s", "s", "lower", 0.24),
		e2e("setup_s", "s", "lower", 0.25),
		e2e("sim_kips", "kinstr/s", "higher", 0.24),
		e2e("alloc_mb", "MB", "lower", 0.15),

		layer("harness.points", "count", "lower", "wall_s", wSweep, simWorkloads),
		layer("harness.point_p50_s", "s", "lower", "wall_s", wSweep, simWorkloads),
		layer("harness.pool_util", "ratio", "higher", "wall_s", wFig12, simWorkloads),

		layer("sim.new_ms", "ms", "lower", "wall_s", wSweep, simWorkloads),
		layer("sim.ticked_cycles", "count", "lower", "sim_kips", wPaper, simWorkloads),
		layer("sim.skipped_cycles", "count", "higher", "sim_kips", wPaper, simWorkloads),
		layer("sim.sm_sleep_ratio", "ratio", "higher", "sim_kips", wPaper, simWorkloads),
		layer("sim.ns_per_ticked_cycle", "ns", "lower", "wall_s", wPaper, simWorkloads),
	}
	stageOn := map[string]string{"dispatch": wSweep, "sm": wFig12, "l2": wPaper, "dram": wPaper, "response": wPaper}
	for _, st := range stageList {
		ms = append(ms, layer("sim.stage."+st+"_ns", "ns", "lower", "wall_s", stageOn[st], simWorkloads))
	}
	for _, st := range stageList {
		ms = append(ms, layer("sim.stage."+st+"_share", "ratio", "lower", "wall_s", stageOn[st], simWorkloads))
	}
	ms = append(ms,
		layer("policy.gate.calls", "count", "lower", "wall_s", wFig12, simWorkloads),
		layer("policy.victim.calls", "count", "lower", "wall_s", wPaper, simWorkloads),
		layer("policy.monitor.calls", "count", "lower", "wall_s", wPaper, simWorkloads),
		layer("policy.cycle.calls", "count", "lower", "wall_s", wSweep, simWorkloads),
		layer("policy.victim.ns_per_call", "ns", "lower", "wall_s", wPaper, simWorkloads),
		layer("policy.monitor.ns_per_call", "ns", "lower", "wall_s", wPaper, simWorkloads),
		layer("policy.cycle.ns_per_call", "ns", "lower", "wall_s", wSweep, simWorkloads),
		layer("policy.share", "ratio", "lower", "wall_s", wPaper, simWorkloads),

		layer("cache.l1_load_accesses", "count", "higher", "sim_kips", wPaper, allWorkloads),
		layer("cache.l1_miss_ratio", "ratio", "lower", "sim_kips", wPaper, allWorkloads),
		layer("cache.l2_accesses", "count", "lower", "sim_kips", wPaper, allWorkloads),
		layer("dram.bytes", "B", "lower", "sim_kips", wPaper, allWorkloads),
		layer("regfile.victim_reads", "count", "higher", "sim_kips", wPaper, allWorkloads),
		layer("regfile.victim_writes", "count", "lower", "sim_kips", wPaper, allWorkloads),
		layer("regfile.bank_conflicts", "count", "lower", "sim_kips", wPaper, allWorkloads),
		layer("core.reg_hit_ratio", "ratio", "higher", "sim_kips", wPaper, allWorkloads),
		layer("core.lb_gain_gm", "ratio", "higher", "sim_kips", wSweep, allWorkloads),

		layer("serve.executions", "count", "lower", "wall_s", wServe, serveOnly),
		layer("serve.twin_hits", "count", "higher", "wall_s", wServe, serveOnly),
		layer("serve.fallbacks", "count", "lower", "wall_s", wServe, serveOnly),
		layer("serve.rejected", "count", "lower", "wall_s", wServe, serveOnly),
		layer("serve.sweep_p50_s", "s", "lower", "wall_s", wServe, serveOnly),
		layer("serve.sweep_p90_s", "s", "lower", "wall_s", wServe, serveOnly),
		layer("serve.estimate_p50_us", "us", "lower", "wall_s", wServe, serveOnly),
		layer("serve.fallback_p50_ms", "ms", "lower", "wall_s", wServe, serveOnly),
		layer("store.put_p50_ms", "ms", "lower", "wall_s", wServe, serveOnly),
		layer("store.put_p90_ms", "ms", "lower", "wall_s", wServe, serveOnly),
		layer("store.reopen_ms", "ms", "lower", "setup_s", wServe, serveOnly),
		layer("twin.calibrate_s", "s", "lower", "setup_s", wServe, serveOnly),
		layer("twin.estimate_ns", "ns", "lower", "wall_s", wServe, serveOnly),

		layer("trace.overhead", "ratio", "lower", "wall_s", wFig12, simWorkloads),
	)
	return ms
}()

func (m metric) measures(workload string) bool {
	for _, w := range m.measuredOn {
		if w == workload {
			return true
		}
	}
	return false
}

// outcome is what one workload run measured and checked.
type outcome struct {
	workload string
	passes   int
	// e2e holds the samples of every end-to-end metric; the reported value
	// is the median.
	e2e map[string][]float64
	// layer holds the traced pass's per-layer values (nil when untraced).
	layer map[string]float64
	// attempted counts checked operations; failed counts the ones that
	// errored, were refused or produced a wrong result.
	attempted, failed int
	failures          []string
}

func newOutcome(workload string) *outcome {
	return &outcome{workload: workload, e2e: map[string][]float64{}}
}

// fail records one failed operation. Only the first few messages are kept.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 20 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// validate checks the outcome against the declarations: every metric the
// workload measures is present, and nothing undeclared or unmeasured is.
func (o *outcome) validate() error {
	declared := map[string]metric{}
	for _, m := range metrics {
		declared[m.name] = m
	}
	check := func(kind string, have []string, layerKind bool) error {
		for _, name := range have {
			m, ok := declared[name]
			switch {
			case !ok:
				return fmt.Errorf("%s: undeclared %s metric %q", o.workload, kind, name)
			case m.layer != layerKind:
				return fmt.Errorf("%s: metric %q reported as %s", o.workload, name, kind)
			case !m.measures(o.workload):
				return fmt.Errorf("%s: metric %q is not declared as measured on this workload", o.workload, name)
			}
		}
		return nil
	}
	if err := check("end-to-end", stats.SortedKeys(o.e2e), false); err != nil {
		return err
	}
	if o.layer != nil {
		if err := check("per-layer", stats.SortedKeys(o.layer), true); err != nil {
			return err
		}
	}
	for _, m := range metrics {
		if !m.measures(o.workload) {
			continue
		}
		if !m.layer && len(o.e2e[m.name]) == 0 {
			return fmt.Errorf("%s: end-to-end metric %q has no samples", o.workload, m.name)
		}
		if _, ok := o.layer[m.name]; m.layer && o.layer != nil && !ok {
			return fmt.Errorf("%s: per-layer metric %q missing from the traced pass", o.workload, m.name)
		}
	}
	return nil
}

// value is the reported value of a declared metric: the median of its
// samples, the traced value, or 0 where the workload does not measure it.
func (o *outcome) value(m metric) float64 {
	if !m.layer {
		return median(o.e2e[m.name])
	}
	return o.layer[m.name]
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

// result builds the one-line machine-readable result: every end-to-end
// metric when untraced, every per-layer metric when traced.
func (o *outcome) result(traced bool) resultLine {
	r := resultLine{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed,
		Metrics: map[string]resultMetric{}}
	for _, m := range metrics {
		if m.layer == traced {
			r.Metrics[m.name] = resultMetric{Value: o.value(m), Unit: m.unit}
		}
	}
	return r
}

// printTable writes the human-readable report of one workload.
func (o *outcome) printTable(w io.Writer, why string) {
	fmt.Fprintf(w, "\n== %s: %d measured pass(es), %d op(s) checked, %d failed\n", o.workload, o.passes, o.attempted, o.failed)
	fmt.Fprintf(w, "   why: %s\n", why)
	fmt.Fprintf(w, "   %-28s %-9s %14s %12s %14s %14s %5s  %s\n", "end-to-end", "unit", "median", "IQR", "min", "max", "n", "bound")
	for _, m := range metrics {
		if m.layer {
			continue
		}
		s := summarize(o.e2e[m.name])
		fmt.Fprintf(w, "   %-28s %-9s %14.6g %12.4g %14.6g %14.6g %5d  %s %.0f%%\n",
			m.name, m.unit, s.Median, s.IQR, s.Min, s.Max, s.N, m.better, 100*m.bound)
	}
	if o.layer != nil {
		fmt.Fprintf(w, "   %-28s %-9s %14s  %s\n", "per-layer (traced pass)", "unit", "value", "should move")
		for _, m := range metrics {
			if !m.layer {
				continue
			}
			if !m.measures(o.workload) {
				fmt.Fprintf(w, "   %-28s %-9s %14s  (layer not exercised here)\n", m.name, m.unit, "-")
				continue
			}
			fmt.Fprintf(w, "   %-28s %-9s %14.6g  %s on %s\n", m.name, m.unit, o.value(m), m.moves, m.on)
		}
	}
	for _, f := range o.failures {
		fmt.Fprintf(w, "   FAIL: %s\n", f)
	}
}

// writeResult prints the result line as a single JSON object.
func writeResult(w io.Writer, r resultLine) error {
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// workloadList parses a comma-separated workload selection ("" or "all"
// selects every workload).
func workloadList(spec string) ([]string, error) {
	if spec == "" || spec == "all" {
		return allWorkloads, nil
	}
	var out []string
	seen := map[string]bool{}
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if _, ok := workloadWhy[name]; !ok {
			return nil, fmt.Errorf("unknown workload %q (want %s)", name, strings.Join(allWorkloads, ", "))
		}
		if !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	return out, nil
}

// workloadWhy records why each workload exists; BENCHMARK.json carries the
// same text.
var workloadWhy = map[string]string{
	wFig12: "SM-bound 4-SM machine: S2 through the Fig 12 column set; the SM stage and policy gates dominate, and only 1 of 10 points exercises the victim path.",
	wPaper: "Memory-starved Table 1 machine (16 SMs): S2, BI, FD, BG under baseline and Linebacker; skip bookkeeping, DRAM, L2 and icnt carry the cost.",
	wSweep: "Breadth: all 20 Table 2 kernels under baseline and Linebacker in short runs, where machine construction, CTA launch and pool tails weigh most.",
	wServe: "The operator's path: sweeps, twin estimates and simulation fallbacks through lbserve's HTTP API over an fsync'd store.",
}

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var bf benchmarkFile
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

var (
	nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkFileMatchesDeclarations: BENCHMARK.json declares exactly the
// workloads and metrics the program reports, with the same units,
// directions and bounds.
func TestBenchmarkFileMatchesDeclarations(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if strings.Join(bf.Command, " ") != "bash cmd/lbbench/run.sh" || len(bf.Paths) != 1 || bf.Paths[0] != "cmd/lbbench" {
		t.Errorf("command %q, paths %q", bf.Command, bf.Paths)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d", bf.RunSeconds)
	}
	if n := len(bf.Workloads); n < 2 || n > 8 || n != len(allWorkloads) {
		t.Fatalf("%d workloads", n)
	}
	for i, w := range bf.Workloads {
		if w.Name != allWorkloads[i] || w.Why != workloadWhy[w.Name] || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %+v", i, w)
		}
	}
	if len(bf.EndToEnd) > 16 || len(bf.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(bf.EndToEnd), len(bf.PerLayer))
	}

	var e2es, layers []metric
	for _, m := range metrics {
		if m.layer {
			layers = append(layers, m)
		} else {
			e2es = append(e2es, m)
		}
	}
	if len(bf.EndToEnd) != len(e2es) || len(bf.PerLayer) != len(layers) {
		t.Fatalf("BENCHMARK.json declares %d+%d metrics, the program %d+%d",
			len(bf.EndToEnd), len(bf.PerLayer), len(e2es), len(layers))
	}
	maxBound, setupBound := 0.0, -1.0
	for i, d := range bf.EndToEnd {
		m := e2es[i]
		if d.Name != m.name || d.Unit != m.unit || d.Better != m.better || d.Bound != m.bound {
			t.Errorf("end-to-end %d: file %+v, program %+v", i, d, m)
		}
		if d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside [0, 0.25]", d.Name, d.Bound)
		}
		maxBound = max(maxBound, d.Bound)
		if d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower" {
			setupBound = d.Bound
		}
		if len(m.measuredOn) != len(allWorkloads) {
			t.Errorf("%s: an end-to-end metric must be measured on every workload", m.name)
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s must be declared (s, lower) with the largest bound; have %v of %v", setupBound, maxBound)
	}
	workloadSet := map[string]bool{}
	for _, w := range allWorkloads {
		workloadSet[w] = true
	}
	e2eSet := map[string]bool{}
	for _, m := range e2es {
		e2eSet[m.name] = true
	}
	seen := map[string]bool{}
	for i, d := range bf.PerLayer {
		m := layers[i]
		if d.Name != m.name || d.Unit != m.unit || d.Better != m.better {
			t.Errorf("per-layer %d: file %+v, program %+v", i, d, m)
		}
		if !e2eSet[m.moves] || !workloadSet[m.on] || len(m.measuredOn) == 0 {
			t.Errorf("%s: should move %q on %q, measured on %v", m.name, m.moves, m.on, m.measuredOn)
		}
	}
	for _, m := range metrics {
		if !nameRe.MatchString(m.name) || !unitRe.MatchString(m.unit) || seen[m.name] {
			t.Errorf("metric %q (unit %q) malformed or repeated", m.name, m.unit)
		}
		seen[m.name] = true
		if m.better != "lower" && m.better != "higher" {
			t.Errorf("%s: better %q", m.name, m.better)
		}
	}
	for _, w := range allWorkloads {
		if !nameRe.MatchString(w) {
			t.Errorf("workload name %q malformed", w)
		}
	}
}

// TestReporterPrintsExactlyTheDeclaredMetrics: for every workload, an
// outcome holding exactly its measured metrics validates and prints every
// declared name; an undeclared, misplaced or missing metric is refused.
func TestReporterPrintsExactlyTheDeclaredMetrics(t *testing.T) {
	full := func(w string) *outcome {
		o := newOutcome(w)
		o.layer = map[string]float64{}
		for _, m := range metrics {
			switch {
			case !m.measures(w):
			case m.layer:
				o.layer[m.name] = 1
			default:
				o.e2e[m.name] = []float64{1, 2, 3}
			}
		}
		return o
	}
	for _, w := range allWorkloads {
		o := full(w)
		if err := o.validate(); err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		for _, traced := range []bool{false, true} {
			r := o.result(traced)
			for _, m := range metrics {
				if _, ok := r.Metrics[m.name]; ok != (m.layer == traced) {
					t.Errorf("%s traced=%v: %s in result = %v", w, traced, m.name, ok)
				}
			}
		}
		var buf bytes.Buffer
		o.printTable(&buf, workloadWhy[w])
		for _, m := range metrics {
			if !strings.Contains(buf.String(), m.name) {
				t.Errorf("%s: %s not printed", w, m.name)
			}
		}

		extra := full(w)
		extra.layer["sim.undeclared"] = 1
		missing := full(w)
		delete(missing.e2e, "wall_s")
		if extra.validate() == nil || missing.validate() == nil {
			t.Errorf("%s: an undeclared or missing metric was accepted", w)
		}
	}
	misplaced := full(wSweep)
	misplaced.layer["serve.executions"] = 1
	if misplaced.validate() == nil {
		t.Error("a serve metric reported by a simulated workload was accepted")
	}
}

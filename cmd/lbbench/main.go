// Command lbbench is the repository's benchmark: it runs named workloads
// through the public APIs of the harness, engine, service, store and twin
// packages, prints every end-to-end metric with its unit, median and
// spread, checks every output (golden snapshot at seed 1, strict engine
// against skipping engine at any seed), and ends each workload with a
// traced pass that times calls into each layer from outside.
//
// Usage, from the repository root:
//
//	bash cmd/lbbench/run.sh [-seed N] [-workload a,b] [-seconds S] [-trace 0|1] [-json out]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics when
// -trace 0, the per-layer metrics when -trace 1. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"github.com/linebacker-sim/linebacker/internal/check"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// env is the run-wide setting every workload reads.
type env struct {
	seed    uint64
	seconds time.Duration
	traced  bool
	golden  *check.Snapshot
	// workers is the harness sweep pool size: GOMAXPROCS, with one engine
	// worker per run.
	workers int
	timerNs int64
	// minSimPasses is the fewest passes a simulated workload runs, whatever
	// -seconds says: three give a median. A serve-mixed sample holds
	// thousands of requests, so one is enough there.
	minSimPasses int
}

// goldenPath is the committed snapshot, relative to the repository root.
var goldenPath = filepath.Join("internal", "check", "testdata", "golden.json")

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lbbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Uint64("seed", 1, "workload seed: perturbs the simulated kernels' address streams and orders serve-mixed's requests")
	names := fs.String("workload", "all", "comma-separated workloads to run: "+fmt.Sprint(allWorkloads))
	seconds := fs.Int("seconds", 15, "measure each workload for at least this many seconds")
	trace := fs.Int("trace", 1, "1: end each workload with a traced pass and report per-layer metrics; 0: end-to-end metrics only")
	jsonOut := fs.String("json", "", "also write the full report as JSON to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	workloads, err := workloadList(*names)
	switch {
	case err != nil:
		fmt.Fprintln(stderr, "lbbench:", err)
		return 2
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "lbbench: unexpected arguments %q\n", fs.Args())
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintln(stderr, "lbbench: -trace must be 0 or 1")
		return 2
	case *seconds < 1:
		fmt.Fprintln(stderr, "lbbench: -seconds must be at least 1")
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "lbbench:", err)
		return 1
	}
	golden, err := check.LoadSnapshot(filepath.Join(root, goldenPath))
	if err != nil {
		fmt.Fprintln(stderr, "lbbench:", err)
		return 1
	}
	e := &env{
		seed:         *seed,
		seconds:      time.Duration(*seconds) * time.Second,
		traced:       *trace == 1,
		golden:       golden,
		workers:      runtime.GOMAXPROCS(0),
		timerNs:      timerCost(),
		minSimPasses: 3,
	}

	h := hostInfo()
	fmt.Fprintf(stdout, "lbbench seed=%d seconds=%d trace=%d workloads=%v\n", e.seed, *seconds, *trace, workloads)
	fmt.Fprintf(stdout, "host: nproc=%d GOMAXPROCS=%d %s %s/%s revision=%s sweep_workers=%d engine_workers=1 timer=%dns\n",
		h.NProc, h.GOMAXPROCS, h.GoVersion, runtime.GOOS, runtime.GOARCH, h.Revision, e.workers, e.timerNs)

	ctx := context.Background()
	rep := report{Seed: e.seed, Seconds: *seconds, Trace: *trace, Host: h}
	exit := 0
	for _, w := range workloads {
		var o *outcome
		if w == wServe {
			o = runServe(ctx, e)
		} else {
			o = runSim(ctx, w, simSpecs[w], e)
		}
		if err := finish(o, e.traced, stdout); err != nil {
			fmt.Fprintln(stderr, "lbbench:", err)
			return 1
		}
		if o.failed > 0 {
			exit = 1
		}
		rep.Workloads = append(rep.Workloads, o.report())
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "lbbench:", err)
			return 1
		}
	}
	return exit
}

// finish checks a successful outcome against the metric declarations, then
// prints its table and its result line, failed or not.
func finish(o *outcome, traced bool, stdout io.Writer) error {
	if o.failed == 0 {
		if err := o.validate(); err != nil {
			o.fail("%v", err)
		}
	}
	o.printTable(stdout, workloadWhy[o.workload])
	return writeResult(stdout, o.result(traced))
}

// findRoot walks up from the working directory to the repository root,
// recognised by the golden snapshot the correctness checks read.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, goldenPath)); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no %s at or above the working directory; run from the repository", goldenPath)
		}
		dir = parent
	}
}

type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"revision"`
}

func hostInfo() host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Revision: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		modified := ""
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Revision = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					modified = "+modified"
				}
			}
		}
		h.Revision += modified
	}
	return h
}

// report is the -json file: every workload's metrics with their spread.
type report struct {
	Seed      uint64           `json:"seed"`
	Seconds   int              `json:"seconds"`
	Trace     int              `json:"trace"`
	Host      host             `json:"host"`
	Workloads []workloadReport `json:"workloads"`
}

type workloadReport struct {
	Name      string                `json:"name"`
	Passes    int                   `json:"passes"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Failures  []string              `json:"failures,omitempty"`
	EndToEnd  map[string]e2eReport  `json:"end_to_end"`
	PerLayer  map[string]layerValue `json:"per_layer,omitempty"`
}

type e2eReport struct {
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
	summary
}

type layerValue struct {
	Unit     string  `json:"unit"`
	Value    float64 `json:"value"`
	Measured bool    `json:"measured"`
}

func (o *outcome) report() workloadReport {
	r := workloadReport{Name: o.workload, Passes: o.passes, Attempted: o.attempted, Failed: o.failed,
		Failures: o.failures, EndToEnd: map[string]e2eReport{}}
	for _, m := range metrics {
		switch {
		case !m.layer:
			r.EndToEnd[m.name] = e2eReport{Unit: m.unit, Bound: m.bound, summary: summarize(o.e2e[m.name])}
		case o.layer != nil:
			if r.PerLayer == nil {
				r.PerLayer = map[string]layerValue{}
			}
			r.PerLayer[m.name] = layerValue{Unit: m.unit, Value: o.value(m), Measured: m.measures(o.workload)}
		}
	}
	return r
}

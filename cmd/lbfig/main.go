// Command lbfig regenerates the paper's tables and figures.
//
// Usage:
//
//	lbfig -fig fig12                # one experiment
//	lbfig -all                      # everything, in paper order
//	lbfig -list                     # list experiment ids
//	lbfig -fig fig12 -paper         # full Table 1 scale (16 SMs, 50k windows)
//	lbfig -fig fig12 -csv           # emit CSV instead of aligned text
//	lbfig -all -svg -out artifacts  # also render each figure as an SVG chart
//	lbfig -windows 12               # run length in monitoring windows
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/linebacker-sim/linebacker/internal/cliutil"
	"github.com/linebacker-sim/linebacker/internal/harness"
)

func main() {
	os.Exit(cliutil.Exit(os.Stderr, "lbfig", run(os.Args[1:], os.Stdout, os.Stderr)))
}

// run is the testable entry point: flag parsing and output against
// injectable streams, errors returned instead of os.Exit.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("lbfig", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig     = fs.String("fig", "", "experiment id (fig12, table2, ...)")
		all     = fs.Bool("all", false, "run every experiment")
		list    = fs.Bool("list", false, "list experiment ids")
		paper   = fs.Bool("paper", false, "use the full Table 1 scale (16 SMs, 50k-cycle windows) instead of the fast 4-SM configuration")
		csv     = fs.Bool("csv", false, "emit CSV")
		md      = fs.Bool("md", false, "emit markdown")
		svg     = fs.Bool("svg", false, "additionally render each experiment as an SVG chart")
		outDir  = fs.String("out", "artifacts", "directory for -svg output")
		windows = fs.Int("windows", 16, "run length in monitoring windows")
		timeout = fs.Duration("timeout", 0, "wall-clock limit per simulation (0 = none)")
		strict  = fs.Bool("strict", false, "tick every cycle instead of event-driven cycle skipping; results are identical in both modes")
	)
	if err := fs.Parse(args); err != nil {
		return cliutil.WrapParse(err)
	}

	if *list {
		for _, e := range harness.Experiments() {
			fmt.Fprintf(stdout, "%-8s %s\n", e.ID, e.Title)
		}
		return nil
	}

	cfg := harness.BenchConfig()
	if *paper {
		cfg = harness.PaperConfig()
	}
	cfg.Strict = *strict
	r := harness.NewRunner(cfg, *windows)
	r.Timeout = *timeout

	emit := func(t *harness.Table) error {
		switch {
		case *csv:
			fmt.Fprint(stdout, t.CSV())
		case *md:
			fmt.Fprintln(stdout, t.Markdown())
		default:
			t.Fprint(stdout)
		}
		if *svg {
			chart, err := t.Chart()
			if err != nil {
				fmt.Fprintf(stderr, "lbfig: %s: %v (skipped)\n", t.ID, err)
				return nil
			}
			doc, err := chart.SVG()
			if err != nil {
				fmt.Fprintf(stderr, "lbfig: %s: %v\n", t.ID, err)
				return nil
			}
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				return err
			}
			path := fmt.Sprintf("%s/%s.svg", *outDir, t.ID)
			if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(stderr, "wrote %s\n", path)
		}
		return nil
	}

	// Experiments run under the harness's fault barrier: a failed point
	// surfaces as a *harness.RunError (with its diagnostic snapshot) on
	// stderr and exit status 1 instead of a crashed process.
	switch {
	case *all:
		for _, e := range harness.Experiments() {
			tab, err := e.RunSafe(r)
			if err != nil {
				return fmt.Errorf("%s: %w", e.ID, err)
			}
			if err := emit(tab); err != nil {
				return err
			}
		}
		return nil
	case *fig != "":
		e, ok := harness.ExperimentByID(*fig)
		if !ok {
			return cliutil.Usagef("unknown experiment %q (use -list)", *fig)
		}
		tab, err := e.RunSafe(r)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		return emit(tab)
	default:
		fs.Usage()
		return cliutil.Usagef("one of -fig, -all, -list required")
	}
}

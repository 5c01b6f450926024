// Command lbvet runs the project's static-analysis suite: the determinism
// and accounting rules of internal/analysis, enforced over the module at
// compile time.
//
// Usage:
//
//	lbvet ./...
//	lbvet -analyzers maprange,floatsum ./internal/sim ./internal/stats
//	lbvet -format sarif ./... > lbvet.sarif
//	lbvet -list
//
// Every run loads and type-checks the selected packages from source, runs
// the analyzers over them one after the other, and prints the findings
// sorted by position with module-relative file names.
//
// Exit status: 0 clean, 1 findings, 2 usage or load error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/linebacker-sim/linebacker/internal/analysis"
)

// errFindings distinguishes "the code is dirty" (exit 1) from "lbvet could
// not run" (exit 2).
var errFindings = errors.New("findings")

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	switch {
	case err == nil:
	case errors.Is(err, errFindings):
		os.Exit(1)
	default:
		fmt.Fprintln(os.Stderr, "lbvet:", err)
		os.Exit(2)
	}
}

// run is the testable entry point: flag parsing and output against
// injectable streams, errors returned instead of os.Exit.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("lbvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		names  = fs.String("analyzers", "", "comma-separated analyzer subset (default: all)")
		list   = fs.Bool("list", false, "list analyzers and exit")
		dir    = fs.String("dir", ".", "directory to resolve package patterns from")
		format = fs.String("format", "text", "output format: text or sarif")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	analyzers, err := analysis.Select(*names)
	if err != nil {
		return err
	}
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return nil
	}
	switch *format {
	case "text", "sarif":
	default:
		return fmt.Errorf("unknown -format %q (want text or sarif)", *format)
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		return errors.New("no packages (try: lbvet ./...)")
	}

	diags, npkgs, err := analyze(*dir, patterns, analyzers)
	if err != nil {
		return err
	}

	if err := writeDiags(stdout, *format, analyzers, diags); err != nil {
		return err
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "lbvet: %d finding(s) in %d package(s)\n", len(diags), npkgs)
		return errFindings
	}
	return nil
}

// analyze loads the packages the patterns select and runs the suite over
// them. The diagnostics come back module-relative and sorted, alongside the
// number of packages analyzed.
func analyze(dir string, patterns []string, analyzers []*analysis.Analyzer) ([]analysis.Diagnostic, int, error) {
	loader, err := analysis.NewLoader(dir)
	if err != nil {
		return nil, 0, err
	}
	pkgs, err := loader.LoadPatterns(dir, patterns)
	if err != nil {
		return nil, 0, err
	}
	return analysis.Relativize(loader.Root(), analysis.Run(loader.Fset, pkgs, analyzers)), len(pkgs), nil
}

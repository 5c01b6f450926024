// Command lbsim runs one benchmark under one scheme and prints the
// statistics block.
//
// Usage:
//
//	lbsim -bench S2 -scheme linebacker
//	lbsim -bench BI -scheme swl:4 -windows 16 -paper
//	lbsim -bench KM -scheme vc -check
//	lbsim -list
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/linebacker-sim/linebacker"
	"github.com/linebacker-sim/linebacker/internal/chaos"
	"github.com/linebacker-sim/linebacker/internal/cliutil"
	"github.com/linebacker-sim/linebacker/internal/harness"
	"github.com/linebacker-sim/linebacker/internal/stats"
)

func main() {
	os.Exit(cliutil.Exit(os.Stderr, "lbsim", run(os.Args[1:], os.Stdout, os.Stderr)))
}

// run is the testable entry point: flag parsing and output against
// injectable streams, errors returned instead of os.Exit.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("lbsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		bench      = fs.String("bench", "S2", "benchmark code (see -list)")
		kernelFile = fs.String("kernel", "", "run a kernel described in a JSON file instead of -bench")
		scheme     = fs.String("scheme", "linebacker", "scheme specifier (baseline, swl:<n>, ccws, pcal, cerf, cacheext, linebacker, svc, vc, ...)")
		windows    = fs.Int("windows", 16, "run length in monitoring windows (0 = to completion)")
		paper      = fs.Bool("paper", false, "full Table 1 scale (16 SMs) instead of the fast 4-SM configuration")
		list       = fs.Bool("list", false, "list benchmarks and schemes")
		timeline   = fs.Bool("timeline", false, "print per-window IPC while running")
		traceFile  = fs.String("trace", "", "replay a recorded memory trace instead of -bench")
		recordFile = fs.String("record", "", "record the run's memory trace to a file")
		checkFlag  = fs.Bool("check", false, "sweep runtime conservation invariants every cycle; abort on violation")
		timeout    = fs.Duration("timeout", 0, "wall-clock limit for the run (0 = none)")
		chaosSpec  = fs.String("chaos", "", "fault-injection spec, e.g. panic:sm:5000 or stall-dram:2000 (see internal/chaos)")
		strict     = fs.Bool("strict", false, "re-derive every head-of-line MSHR stall each cycle (by default an LSU parks on one until the next fill); results are identical in both modes")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile to this file at exit")
	)
	if err := fs.Parse(args); err != nil {
		return cliutil.WrapParse(err)
	}
	if err := cliutil.CheckWindows(*windows); err != nil {
		return err
	}
	if *cpuProfile != "" || *memProfile != "" {
		stop, perr := cliutil.StartProfiles(*cpuProfile, *memProfile)
		if perr != nil {
			return perr
		}
		defer func() {
			if perr := stop(); perr != nil {
				fmt.Fprintln(stderr, "lbsim:", perr)
			}
		}()
	}

	if *list {
		fmt.Fprintln(stdout, "benchmarks (Table 2):")
		for _, b := range linebacker.Benchmarks() {
			class := "cache-insensitive"
			if b.Sensitive {
				class = "cache-sensitive"
			}
			fmt.Fprintf(stdout, "  %-4s %-36s %-10s %s\n", b.Name, b.Desc, b.Suite, class)
		}
		fmt.Fprintln(stdout, "schemes:")
		for _, s := range linebacker.SchemeNames() {
			fmt.Fprintf(stdout, "  %s\n", s)
		}
		return nil
	}

	var kernel *linebacker.Kernel
	title := ""
	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			return err
		}
		tr, err := linebacker.ParseTrace(f)
		f.Close()
		if err != nil {
			return err
		}
		kernel, err = tr.Kernel("trace-replay", 2, 8, 8, 24, 4096)
		if err != nil {
			return err
		}
		title = fmt.Sprintf("trace replay (%d warps, %d loads, %d events from %s)",
			tr.Warps(), tr.Loads(), tr.Events(), *traceFile)
	} else if *kernelFile != "" {
		data, err := os.ReadFile(*kernelFile)
		if err != nil {
			return err
		}
		kernel, err = linebacker.ParseKernelJSON(data)
		if err != nil {
			return err
		}
		title = fmt.Sprintf("%s (from %s)", kernel.Name, *kernelFile)
	} else {
		b, ok := linebacker.Benchmark(*bench)
		if !ok {
			return cliutil.Usagef("unknown benchmark %q (use -list)", *bench)
		}
		kernel = b.Kernel
		title = fmt.Sprintf("%s (%s)", b.Name, b.Desc)
	}
	pol, err := linebacker.NewScheme(*scheme)
	if err != nil {
		return cliutil.Usagef("%v", err)
	}

	cfg := linebacker.FastConfig()
	if *paper {
		cfg = linebacker.DefaultConfig()
	}
	cfg.Check = *checkFlag
	if cfg.Chaos, err = chaos.ParseSpec(*chaosSpec); err != nil {
		return cliutil.Usagef("%v", err)
	}
	cfg.Strict = *strict
	res, err := runKernel(cfg, kernel, pol, *windows, *timeout, *timeline, *recordFile, stdout)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "benchmark        %s\n", title)
	fmt.Fprintf(stdout, "scheme           %s\n", res.Policy)
	fmt.Fprintf(stdout, "cycles           %d\n", res.Cycles)
	fmt.Fprintf(stdout, "instructions     %d\n", res.Instructions)
	fmt.Fprintf(stdout, "IPC              %.3f\n", res.IPC())
	total := res.TotalLoadReqs()
	if total > 0 {
		fmt.Fprintf(stdout, "load requests    %d\n", total)
		fmt.Fprintf(stdout, "  L1 hits        %5.1f%%\n", pct(res.Loads[0], total))
		fmt.Fprintf(stdout, "  merged misses  %5.1f%%\n", pct(res.Loads[1], total))
		fmt.Fprintf(stdout, "  misses         %5.1f%%\n", pct(res.Loads[2], total))
		fmt.Fprintf(stdout, "  bypasses       %5.1f%%\n", pct(res.Loads[3], total))
		fmt.Fprintf(stdout, "  reg hits       %5.1f%%\n", pct(res.Loads[4], total))
	}
	fmt.Fprintf(stdout, "L1 miss split    cold %d / capacity+conflict %d\n", res.L1.ColdMisses, res.L1.CapConfMisses)
	fmt.Fprintf(stdout, "RF bank conflicts %d\n", res.RF.BankConflicts)
	fmt.Fprintf(stdout, "DRAM traffic     %.1f KB read, %.1f KB written (backup %.1f KB, restore %.1f KB)\n",
		float64(res.DRAM.BytesRead)/1024, float64(res.DRAM.BytesWritten)/1024,
		float64(res.DRAM.RegBackupBytes)/1024, float64(res.DRAM.RegRestoreBytes)/1024)
	eb := linebacker.Energy(&cfg, res)
	fmt.Fprintf(stdout, "energy           %.3g J total (%.3g pJ/instr)\n", eb.Total(),
		linebacker.EnergyPerInstruction(&cfg, res)*1e12)
	if len(res.Extra) > 0 {
		fmt.Fprintln(stdout, "scheme metrics:")
		for _, k := range stats.SortedKeys(res.Extra) {
			fmt.Fprintf(stdout, "  %-24s %.3f\n", k, res.Extra[k])
		}
	}
	return nil
}

// runKernel runs the kernel through the harness run engine, which owns
// the fault barrier: a panic (chaos-injected or an engine bug) or an
// exceeded -timeout comes back as a *harness.RunError with the
// machine-state snapshot, and the process exits 1 instead of crashing.
// lbsim adds only the trace recorder and the timeline.
func runKernel(cfg linebacker.Config, k *linebacker.Kernel, pol linebacker.Policy, windows int, timeout time.Duration, timeline bool, recordFile string, stdout io.Writer) (res *linebacker.Result, err error) {
	r := harness.NewRunner(cfg, windows)
	r.Timeout = timeout
	var record func(*linebacker.GPU)
	if recordFile != "" {
		f, ferr := os.Create(recordFile)
		if ferr != nil {
			return nil, ferr
		}
		rec := linebacker.NewTraceRecorder(f)
		record = func(g *linebacker.GPU) { linebacker.RecordTrace(g, rec) }
		// A trace that could not be written fails the run: a truncated
		// trace must not pass for a complete one.
		defer func() {
			werr := rec.Flush()
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil && err == nil {
				res, err = nil, fmt.Errorf("writing trace %s: %w", recordFile, werr)
			}
		}()
	}
	var drive func(context.Context, *linebacker.GPU) error
	if timeline {
		drive = func(ctx context.Context, g *linebacker.GPU) error {
			return runTimeline(ctx, g, windows, stdout)
		}
	}
	return r.Simulate(context.Background(), cfg, "", k, pol, record, drive)
}

// runTimeline runs the machine window by window, printing each window's
// IPC over the cycles it actually simulated, and stops after the window in
// which the grid completes (or after the last of windows; 0 = no limit).
func runTimeline(ctx context.Context, g *linebacker.GPU, windows int, stdout io.Writer) error {
	win := int64(g.Config().LB.WindowCycles)
	var prevRetired int64
	fmt.Fprintln(stdout, "window  IPC      bar")
	for w := 1; windows == 0 || w <= windows; w++ {
		start := g.Cycle()
		end, err := g.RunCtx(ctx, int64(w)*win)
		if err != nil {
			return err
		}
		// A window that simulates no cycle means the grid had completed.
		if end == start {
			break
		}
		var retired int64
		for _, sm := range g.SMs() {
			retired += sm.Retired()
		}
		ipc := float64(retired-prevRetired) / float64(end-start)
		prevRetired = retired
		bar := ""
		for i := 0.0; i+0.25 <= ipc; i += 0.25 {
			bar += "#"
		}
		fmt.Fprintf(stdout, "%6d  %6.3f   %s\n", w, ipc, bar)
	}
	fmt.Fprintln(stdout)
	return nil
}

func pct(n, d int64) float64 { return 100 * float64(n) / float64(d) }

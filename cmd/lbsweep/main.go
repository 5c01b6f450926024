// Command lbsweep runs parameter sweeps: static CTA limits (Best-SWL
// search), L1 cache sizes, and VTT partition associativities.
//
// Sweeps execute on the fault-tolerant harness runner: every point runs
// under panic isolation with an optional wall-clock timeout, and with
// -store the completed points commit to a persistent result store
// (internal/store) — re-running the same command after an interruption
// re-simulates only the missing points. After a kill -9, the points that
// were in flight wait up to the store's lease TTL (1 minute) for their
// dead holder's leases to expire before they re-simulate.
//
// Usage:
//
//	lbsweep -mode swl -bench S2
//	lbsweep -mode cache -bench BI -scheme linebacker
//	lbsweep -mode vtt -bench BC
//	lbsweep -mode swl -bench KM -store sweep.d   # resumable
//
// Exit status: 0 ok, 1 run failure or failed checkpoint write, 2 usage
// error.
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
	"github.com/linebacker-sim/linebacker/internal/core"
	"github.com/linebacker-sim/linebacker/internal/harness"
	"github.com/linebacker-sim/linebacker/internal/schemes"
	"github.com/linebacker-sim/linebacker/internal/sim"
	"github.com/linebacker-sim/linebacker/internal/store"
	"github.com/linebacker-sim/linebacker/internal/twin"
)

func main() {
	os.Exit(cliutil.Exit(os.Stderr, "lbsweep", run(os.Args[1:], os.Stdout, os.Stderr)))
}

// run is the testable entry point: flag parsing and output against
// injectable streams, errors returned instead of os.Exit.
func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("lbsweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		mode       = fs.String("mode", "swl", "sweep: swl | cache | vtt | speedup")
		bench      = fs.String("bench", "S2", "benchmark code")
		scheme     = fs.String("scheme", "linebacker", "scheme for the cache sweep")
		windows    = fs.Int("windows", 16, "run length in monitoring windows")
		paper      = fs.Bool("paper", false, "full Table 1 scale")
		timeout    = fs.Duration("timeout", 0, "wall-clock limit per point (0 = none)")
		storeDir   = fs.String("store", "", "result store directory checkpointing completed points; an existing one resumes the sweep")
		chaosSpec  = fs.String("chaos", "", "fault-injection spec, e.g. panic:sm:5000 (see internal/chaos)")
		twinMode   = fs.Bool("twin", false, "answer the cache sweep from a calibrated analytical twin where in-envelope (simulates only the calibration anchors and any out-of-envelope point)")
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
				fmt.Fprintln(stderr, "lbsweep:", perr)
			}
		}()
	}

	b, ok := linebacker.Benchmark(*bench)
	if !ok {
		return cliutil.Usagef("unknown benchmark %q", *bench)
	}
	cfg := linebacker.FastConfig()
	if *paper {
		cfg = linebacker.DefaultConfig()
	}
	if cfg.Chaos, err = chaos.ParseSpec(*chaosSpec); err != nil {
		return cliutil.Usagef("%v", err)
	}

	r := harness.NewRunner(cfg, *windows)
	r.Timeout = *timeout
	r.WatchdogTick = 10 * time.Second
	if *storeDir != "" {
		st, serr := store.Open(*storeDir, store.Options{})
		if serr != nil {
			return serr
		}
		// A checkpoint that could not be written fails the sweep: the
		// results printed are correct, but a re-run would not resume.
		defer func() {
			if cerr := st.Close(); cerr != nil {
				if err == nil {
					err = cerr
				} else {
					fmt.Fprintln(stderr, "lbsweep:", cerr)
				}
			}
		}()
		rep := st.Report()
		fmt.Fprintf(stderr, "lbsweep: store %s: %d result(s) loaded from %d segment(s), %d corrupt record(s) skipped, %d truncated tail byte(s)\n",
			*storeDir, rep.Loaded, rep.Segments, rep.Skipped, rep.TruncatedBytes)
		r.AttachStore(st)
	}

	ctx := context.Background()
	runOne := func(cfg linebacker.Config, cfgKey string, pol linebacker.Policy) (*linebacker.Result, error) {
		return r.RunCfg(ctx, cfg, cfgKey, b.Name, pol)
	}

	switch *mode {
	case "swl":
		maxRes := sim.MaxResidentCTAs(&cfg.GPU, b.Kernel)
		fmt.Fprintf(stdout, "static CTA limit sweep for %s (max resident %d):\n", b.Name, maxRes)
		for lim := 1; lim <= maxRes; lim++ {
			res, err := runOne(cfg, "", schemes.SWL{Limit: lim})
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "  limit %2d: IPC %.3f\n", lim, res.IPC())
		}
		// The figures' oracle, not the best of the limits above: its
		// points are memo hits of this loop.
		bestLim, best, err := r.BestSWL(ctx, b.Name)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "Best-SWL: limit %d (IPC %.3f)\n", bestLim, best.IPC())
	case "cache":
		pol, err := linebacker.NewScheme(*scheme)
		if err != nil {
			return cliutil.Usagef("%v", err)
		}
		var model *twin.Model
		if *twinMode {
			if *scheme != "baseline" && *scheme != "linebacker" {
				return cliutil.Usagef("-twin answers the calibrated arms only (baseline, linebacker), not %q", *scheme)
			}
			if model, err = twin.Calibrate(ctx, r, b.Name, twin.Options{}); err != nil {
				return err
			}
			fmt.Fprintf(stderr, "lbsweep: twin calibrated for %s on %d simulation(s); queries are now analytical\n",
				b.Name, model.CalRuns)
		}
		fmt.Fprintf(stdout, "L1 size sweep for %s under %s:\n", b.Name, pol.Name())
		for _, kb := range []int{16, 48, 64, 96, 128} {
			if model != nil {
				arm := model.Estimate(twin.Query{L1Bytes: kb * 1024, LB: *scheme == "linebacker"})
				base := arm
				if *scheme != "baseline" {
					base = model.Estimate(twin.Query{L1Bytes: kb * 1024})
				}
				if arm.InEnvelope && base.InEnvelope {
					fmt.Fprintf(stdout, "  L1 %3d KB: IPC %.3f [%.3f, %.3f] (%.2fx baseline, twin)\n",
						kb, arm.IPC, arm.Lo, arm.Hi, arm.IPC/base.IPC)
					continue
				}
				reason := arm.Reason
				if reason == "" {
					reason = base.Reason
				}
				fmt.Fprintf(stderr, "lbsweep: L1 %d KB out of the twin envelope (%s); simulating\n", kb, reason)
			}
			c := cfg
			c.GPU.L1Bytes = kb * 1024
			key := fmt.Sprintf("l1=%d", kb)
			base, err := runOne(c, key, sim.Baseline{})
			if err != nil {
				return err
			}
			res, err := runOne(c, key, pol)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "  L1 %3d KB: IPC %.3f (%.2fx baseline)\n", kb, res.IPC(), res.IPC()/base.IPC())
		}
	case "speedup":
		// Cross-bench aggregate: -scheme vs baseline over all 20 benches,
		// combined with the paired geomean so arms that fail on different
		// benches error out instead of averaging disjoint sets.
		if _, err := linebacker.NewScheme(*scheme); err != nil {
			return cliutil.Usagef("%v", err)
		}
		fmt.Fprintf(stdout, "per-bench speedup of %s vs baseline (all benches):\n", *scheme)
		sweepOf := func(mk func() (linebacker.Policy, error)) *harness.Sweep {
			return r.ForEachBench(ctx, func(ctx context.Context, name string) (float64, error) {
				pol, err := mk()
				if err != nil {
					return 0, err
				}
				res, err := r.RunCfg(ctx, cfg, "", name, pol)
				if err != nil {
					return 0, err
				}
				return res.IPC(), nil
			})
		}
		base := sweepOf(func() (linebacker.Policy, error) { return sim.Baseline{}, nil })
		arm := sweepOf(func() (linebacker.Policy, error) { return linebacker.NewScheme(*scheme) })
		for i, name := range arm.Benches {
			switch {
			case arm.Errs[i] != nil:
				fmt.Fprintf(stdout, "  %-4s FAILED (%s): %v\n", name, *scheme, arm.Errs[i])
			case base.Errs[i] != nil:
				fmt.Fprintf(stdout, "  %-4s FAILED (baseline): %v\n", name, base.Errs[i])
			default:
				fmt.Fprintf(stdout, "  %-4s %.3fx  (IPC %.3f vs %.3f)\n",
					name, arm.Vals[i]/base.Vals[i], arm.Vals[i], base.Vals[i])
			}
		}
		gm, n, err := harness.PairedSpeedupGM(arm, base)
		if err != nil {
			return fmt.Errorf("speedup aggregate: %w", err)
		}
		fmt.Fprintf(stdout, "GM speedup: %.3f over %d paired bench(es)\n", gm, n)
	case "vtt":
		fmt.Fprintf(stdout, "VTT partition associativity sweep for %s:\n", b.Name)
		for _, ways := range []int{1, 2, 4, 8, 16, 32} {
			pol := core.NewWith(core.Options{Selection: true, Throttling: true, VTTWays: ways})
			// Distinct cfgKey per point: the VTT policies share a Name, and
			// the memo/store key must not alias them.
			res, err := runOne(cfg, fmt.Sprintf("vtt=%d", ways), pol)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "  %2d-way VPs: IPC %.3f, reg-hit %.1f%%, victim %.0f KB avg\n",
				ways, res.IPC(), res.RegHitRatio()*100, res.Extra["lb_victim_bytes_avg"]/1024)
		}
	default:
		return cliutil.Usagef("unknown mode %q", *mode)
	}
	return nil
}

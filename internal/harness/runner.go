// Package harness defines and executes the paper's experiments: one
// function per table/figure of the evaluation, shared by cmd/lbfig, the
// root-level benchmarks and EXPERIMENTS.md generation.
//
// The Runner is a fault-tolerant run engine and the one place a
// simulation is identified and run. Every simulation — sweep points, the
// per-load probes of Figures 2 and 3, and lbsim's single runs — executes
// in Runner.Simulate, under a panic-recovery barrier with cooperative
// context cancellation, an optional per-run deadline and an optional
// no-forward-progress watchdog. Failures come back as *RunError values
// carrying the failed point's identity and a machine-state snapshot;
// sweeps degrade gracefully by skipping (and reporting) failed points
// instead of dying. Successful results — and only successful results — are
// memoised under a key of the point's configuration, run length, benchmark
// and policy, and optionally committed to a persistent store
// (internal/store) so interrupted sweeps resume without re-simulating
// completed points.
package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"github.com/linebacker-sim/linebacker/internal/chaos"
	"github.com/linebacker-sim/linebacker/internal/check"
	"github.com/linebacker-sim/linebacker/internal/config"
	"github.com/linebacker-sim/linebacker/internal/schemes"
	"github.com/linebacker-sim/linebacker/internal/sim"
	"github.com/linebacker-sim/linebacker/internal/stats"
	"github.com/linebacker-sim/linebacker/internal/store"
	"github.com/linebacker-sim/linebacker/internal/workload"
)

// Runner executes and memoises simulation runs. All experiments of one
// invocation share a Runner so expensive sweeps (Best-SWL) are paid once.
type Runner struct {
	// Cfg is the base configuration for every run (experiments clone and
	// adjust it, e.g. the cache-size sweep).
	Cfg config.Config
	// Windows is the run length in monitoring windows (0 = run each
	// kernel to completion).
	Windows int
	// Timeout bounds the wall-clock time of one simulation (0 = none).
	// An exceeded deadline aborts the run with an ErrTimeout RunError.
	Timeout time.Duration
	// WatchdogTick enables the forward-progress watchdog (0 = off): a run
	// that commits no instruction across one full tick is aborted with an
	// ErrWatchdog RunError and a machine-state snapshot — a livelocked
	// point fails fast instead of wedging the sweep.
	WatchdogTick time.Duration
	// SweepWorkers bounds the sweep-level fan-out: ForEachBench and the
	// Best-SWL sweep run at most this many points concurrently, instead of
	// one goroutine per point. It is the simulator's only parallelism —
	// each run steps its SMs serially (DESIGN.md §9) — and NewRunner sets it
	// to GOMAXPROCS. 0 falls back to serial sweeps.
	SweepWorkers int

	mu         sync.Mutex
	cache      map[string]*sim.Result
	probeCache map[string]*ProbeResult
	flights    map[string]*flight
	sem        chan struct{}
	store      *store.Store
	execs      atomic.Int64
	// idle holds machines whose runs succeeded, at most
	// max(1, SweepWorkers), for Simulate to re-arm (sim.GPU.Reuse).
	idle []*sim.GPU
}

// flight is one in-progress execution of a memo key. Concurrent same-key
// callers that arrive while the leader runs wait on done instead of
// executing (and committing) the identical simulation a second time.
type flight struct {
	done chan struct{} // closed by the leader after res/err are set
	res  *sim.Result
	err  error
}

// NewRunner builds a runner over the given configuration. windows sets the
// run length (8 windows ≈ monitoring + several throttle adjustments).
// Sweeps run one simulation per core.
func NewRunner(cfg config.Config, windows int) *Runner {
	sweep := runtime.GOMAXPROCS(0)
	return &Runner{
		Cfg:          cfg,
		Windows:      windows,
		SweepWorkers: sweep,
		cache:        map[string]*sim.Result{},
		probeCache:   map[string]*ProbeResult{},
		flights:      map[string]*flight{},
		sem:          make(chan struct{}, sweep),
	}
}

// forEachIndex is the shared bounded sweep pool: it applies fn to every
// index in [0, n), running at most SweepWorkers items concurrently. The
// calling goroutine participates as a worker and at most SweepWorkers-1
// helpers are spawned per call, so nested sweeps (ForEachBench points that
// call BestSWL) compose without deadlock — every level always owns at
// least its caller. Items are claimed from an atomic counter; results must
// be written by index, which keeps sweep output independent of claim
// order.
func (r *Runner) forEachIndex(n int, fn func(i int)) {
	workers := r.SweepWorkers
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	var wg sync.WaitGroup
	for k := 1; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// AttachStore routes every memo miss through the persistent store: the
// leader of an in-process flight executes under the store's cross-process
// single-flight (DoOnce), so concurrent clients — and concurrent server
// replicas — pay one simulation per key, and every success is committed
// (CRC-framed, fsynced) before the caller sees it. Keys embed the full
// config fingerprint and the run length, so a store written under a
// different configuration or window count is simply never hit; a re-run
// sweep re-simulates only its missing points.
func (r *Runner) AttachStore(st *store.Store) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.store = st
}

// Executions returns how many simulations actually ran (memo misses) —
// store-resume tests use it to prove completed points are not re-run.
func (r *Runner) Executions() int64 { return r.execs.Load() }

// BenchConfig returns a fast experiment configuration: 4 SMs with the
// shared resources (DRAM bandwidth/channels, L2 capacity) scaled by the
// same 4/16 factor so per-SM contention matches the Table 1 machine, and a
// 12.5 k cycle window (the controller operates on window-relative ratios;
// see DESIGN.md §4).
func BenchConfig() config.Config {
	cfg := config.Default()
	cfg.GPU.NumSMs = 4
	// Half-rate bandwidth per SM keeps queueing pressure comparable to the
	// 16-SM machine once the 4 SMs' burstiness is accounted for (calibrated
	// against the Best-SWL gains of Figure 5).
	cfg.GPU.DRAMBandwidthGBs = 176.25
	cfg.GPU.DRAMChannels = 4
	cfg.GPU.L2Bytes = 512 * 1024
	cfg.LB.WindowCycles = 12500
	return cfg
}

// PaperConfig returns the full Table 1 configuration.
func PaperConfig() config.Config { return config.Default() }

func (r *Runner) cycles(cfg *config.Config) int64 {
	return int64(r.Windows) * int64(cfg.LB.WindowCycles)
}

// cfgFingerprint renders every field of the configuration into the memo
// key. Config is a tree of value types, so %v is deterministic and two
// configs collide only when they are semantically identical. Chaos fields
// are part of the fingerprint by construction: a faulted run can never
// alias a clean cache or store entry. The run length is not a Config field;
// memoKey adds the runner's Windows next to the fingerprint.
//
// Strict is the one deliberate exclusion: it only chooses whether an LSU
// re-derives a head-of-line MSHR stall every cycle or parks on it until
// the next fill — results are bit-identical in both run modes
// (test-enforced, DESIGN.md §10) — so such runs share memo and store
// entries instead of re-simulating.
func cfgFingerprint(cfg *config.Config) string {
	canon := *cfg
	canon.Strict = false
	return fmt.Sprintf("%v", canon)
}

// memoKey identifies one simulation: the experiment label, the full config
// fingerprint, the run length, the benchmark and the policy name. RunCfg
// keys its memo cache and the store by it and RunProbe keys its memo by
// it, so a changed config or Windows never returns a stale result.
func (r *Runner) memoKey(cfg *config.Config, cfgKey, bench, policy string) string {
	return fmt.Sprintf("%s|%s|w=%d|%s|%s", cfgKey, cfgFingerprint(cfg), r.Windows, bench, policy)
}

// Run simulates one benchmark under one policy using the runner's base
// config, memoised by (config fingerprint, run length, bench,
// policy-name). A non-nil error is always a *RunError.
func (r *Runner) Run(ctx context.Context, bench string, pol sim.Policy) (*sim.Result, error) {
	return r.RunCfg(ctx, r.Cfg, "", bench, pol)
}

// MustRun is Run with a background context, panicking on failure — the
// thin wrapper experiment code uses, where a failed point is a bug in the
// experiment itself. The panic value is the *RunError, so Experiment.RunSafe
// recovers it losslessly.
func (r *Runner) MustRun(bench string, pol sim.Policy) *sim.Result {
	res, err := r.Run(context.Background(), bench, pol)
	if err != nil {
		panic(err)
	}
	return res
}

// RunCfg simulates with an explicit configuration. The memo key always
// includes a full fingerprint of cfg and the runner's Windows, so two
// different configurations or run lengths can never alias a cache or store
// entry; cfgKey is a human-readable discriminator kept for experiment
// labelling and stable memo keys across sweeps. Only
// successful results enter the memo cache and store — a failed or
// cancelled run leaves no partial entry behind. A non-nil error is always
// a *RunError.
//
// Same-key calls are single-flight: concurrent callers that miss the memo
// cache while an identical run is executing wait for that run instead of
// duplicating it, so a key is simulated (and committed) exactly once no
// matter how many sweep goroutines race to it. Failures are never shared
// forward: a waiter whose leader failed retries with its own context.
func (r *Runner) RunCfg(ctx context.Context, cfg config.Config, cfgKey, bench string, pol sim.Policy) (*sim.Result, error) {
	key := r.memoKey(&cfg, cfgKey, bench, pol.Name())
	var f *flight
	for {
		r.mu.Lock()
		if res, ok := r.cache[key]; ok {
			r.mu.Unlock()
			return res, nil
		}
		inFlight := false
		if f, inFlight = r.flights[key]; !inFlight {
			f = &flight{done: make(chan struct{})}
			r.flights[key] = f
			r.mu.Unlock()
			break // this caller is the leader
		}
		r.mu.Unlock()
		select {
		case <-f.done:
			if f.err == nil {
				return f.res, nil
			}
			// The leader failed, so nothing was memoised; loop and try
			// again as (potential) leader under this caller's context.
		case <-ctx.Done():
			return nil, &RunError{Bench: bench, Policy: pol.Name(), CfgKey: cfgKey,
				Phase: PhaseQueue, Err: context.Cause(ctx)}
		}
	}

	var res *sim.Result
	var err error
	select {
	case r.sem <- struct{}{}:
		r.mu.Lock()
		st := r.store
		r.mu.Unlock()
		if st != nil {
			// The store may satisfy the key from another process's commit
			// (no execution), or run us as the cross-process leader.
			res, _, err = st.DoOnce(ctx, key, func(ctx context.Context) (*sim.Result, error) {
				return r.execute(ctx, cfg, cfgKey, bench, pol, nil)
			})
		} else {
			res, err = r.execute(ctx, cfg, cfgKey, bench, pol, nil)
		}
		<-r.sem
	case <-ctx.Done():
		err = &RunError{Bench: bench, Policy: pol.Name(), CfgKey: cfgKey,
			Phase: PhaseQueue, Err: context.Cause(ctx)}
	}
	if err != nil {
		// Store-layer failures (lease wait cancelled, refresh I/O) arrive
		// unstructured; keep the RunCfg contract that every error is a
		// *RunError carrying the point's identity.
		var re *RunError
		if !errors.As(err, &re) {
			err = &RunError{Bench: bench, Policy: pol.Name(), CfgKey: cfgKey,
				Phase: PhaseQueue, Err: err}
		}
	}

	// Publish atomically: cache insert and flight retirement happen under
	// the same critical section, so no racing caller can observe the gap
	// (missing cache entry, no flight) and start a duplicate execution.
	r.mu.Lock()
	if err == nil {
		r.cache[key] = res
	}
	delete(r.flights, key)
	r.mu.Unlock()
	f.res, f.err = res, err
	close(f.done)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// MustRunCfg is RunCfg with a background context, panicking on failure.
func (r *Runner) MustRunCfg(cfg config.Config, cfgKey, bench string, pol sim.Policy) *sim.Result {
	res, err := r.RunCfg(context.Background(), cfg, cfgKey, bench, pol)
	if err != nil {
		panic(err)
	}
	return res
}

// execute runs one Table 2 benchmark through Simulate.
func (r *Runner) execute(ctx context.Context, cfg config.Config, cfgKey, bench string, pol sim.Policy, instrument func(*sim.GPU)) (*sim.Result, error) {
	b, ok := workload.ByName(bench)
	if !ok {
		return nil, &RunError{Bench: bench, Policy: pol.Name(), CfgKey: cfgKey, Phase: PhaseSetup,
			Err: fmt.Errorf("%w %q", ErrUnknownBench, bench)}
	}
	return r.Simulate(ctx, cfg, cfgKey, b.Kernel, pol, instrument, nil)
}

// Simulate is the run engine's fault barrier, the one place a simulation
// runs. It arms a machine for kernel k under pol with sim.GPU.Reuse — an
// idle machine of the runner, or an empty one when none is idle — then
// the invariant checker when cfg.Check is set and the chaos injector when
// cfg.Chaos arms a fault, hands it to instrument when that is non-nil, and
// drives it under the runner's deadline and watchdog: by default with
// RunCtx to the runner's run length, or with drive when that is non-nil.
// A panic, cancellation or drive error comes back as a *RunError labelled
// (k.Name, pol, cfgKey) with the cycle, a machine-state snapshot and, for
// panics, the recovered stack. All machine state in the error is read by
// this goroutine after the run has stopped, so no diagnostic races the
// engine. Simulate neither memoises nor takes a sweep slot; RunCfg and
// RunProbe do both around it.
//
// A machine returns to the idle list only after its run succeeded, its
// watchdog goroutine has exited and Collect has read it, and only while
// fewer than max(1, SweepWorkers) machines are idle. A point that
// panicked, was cancelled, timed out, tripped the watchdog or returned a
// drive error drops its machine, whose state is suspect (DESIGN.md §8).
// instrument and drive must not keep the machine past their return: the
// runner re-arms it for a later point.
func (r *Runner) Simulate(ctx context.Context, cfg config.Config, cfgKey string, k *workload.Kernel, pol sim.Policy,
	instrument func(*sim.GPU), drive func(context.Context, *sim.GPU) error) (res *sim.Result, err error) {
	rerr := &RunError{Bench: k.Name, Policy: pol.Name(), CfgKey: cfgKey, Phase: PhaseSetup}
	var g *sim.GPU
	defer func() {
		if p := recover(); p != nil {
			rerr.Err = fmt.Errorf("%w: %v", ErrPanic, p)
			rerr.Stack = string(debug.Stack())
			if g != nil {
				rerr.Cycle = g.Cycle()
				rerr.Snapshot = safeDump(g)
			}
			res, err = nil, rerr
		}
	}()

	machine, serr := r.machine(cfg, k, pol)
	if serr != nil {
		rerr.Err = fmt.Errorf("%w: %w", ErrBadConfig, serr)
		return nil, rerr
	}
	g = machine
	if cfg.Check {
		check.Attach(g)
	}
	chaos.Attach(g)
	if instrument != nil {
		instrument(g)
	}
	r.execs.Add(1)

	runCtx := ctx
	if r.Timeout > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeoutCause(runCtx, r.Timeout, ErrTimeout)
		defer cancel()
	}
	stopWatchdog := func() {}
	if r.WatchdogTick > 0 {
		wdCtx, cancelCause := context.WithCancelCause(runCtx)
		stop := startWatchdog(cancelCause, g, r.WatchdogTick)
		stopWatchdog = sync.OnceFunc(func() {
			stop()
			cancelCause(nil)
		})
		defer stopWatchdog()
		runCtx = wdCtx
	}

	rerr.Phase = PhaseRun
	if drive == nil {
		drive = func(ctx context.Context, g *sim.GPU) error {
			_, err := g.RunCtx(ctx, r.cycles(&cfg))
			return err
		}
	}
	runErr := drive(runCtx, g)
	stopWatchdog()
	if runErr != nil {
		rerr.Cycle = g.Cycle()
		rerr.Snapshot = safeDump(g)
		rerr.Err = runErr
		return nil, rerr
	}
	rerr.Phase = PhaseCollect
	res = g.Collect()
	r.release(g)
	return res, nil
}

// machine arms a machine for the point: the most recently idled one, or
// an empty one when none is idle, which is what sim.New arms. A machine
// Reuse rejects the configuration for is dropped.
func (r *Runner) machine(cfg config.Config, k *workload.Kernel, pol sim.Policy) (*sim.GPU, error) {
	var g *sim.GPU
	r.mu.Lock()
	if n := len(r.idle); n > 0 {
		g = r.idle[n-1]
		r.idle[n-1] = nil
		r.idle = r.idle[:n-1]
	}
	r.mu.Unlock()
	if g == nil {
		g = new(sim.GPU)
	}
	if err := g.Reuse(cfg, k, pol); err != nil {
		return nil, err
	}
	return g, nil
}

// release puts the machine of a successful run on the idle list, unless
// max(1, SweepWorkers) machines are idle already.
func (r *Runner) release(g *sim.GPU) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.idle) < max(1, r.SweepWorkers) {
		r.idle = append(r.idle, g)
	}
}

// safeDump renders the diagnostic snapshot, never letting a dump of an
// inconsistent (mid-panic) machine turn one failure into two.
func safeDump(g *sim.GPU) (dump string) {
	defer func() {
		if recover() != nil {
			dump = "(state dump unavailable: machine inconsistent)"
		}
	}()
	return g.StateDump()
}

// swlSweepLimits returns the CTA limits Best-SWL tries. A degenerate
// residency bound (< 1) yields no sweep at all: a limit of 0 can never
// launch a CTA, so a sweep containing it would only die via watchdog.
func swlSweepLimits(maxResident int) []int {
	if maxResident < 1 {
		return nil
	}
	candidates := []int{1, 2, 3, 4, 6, 8, 12, 16, 24, 32}
	var out []int
	for _, c := range candidates {
		if c < maxResident {
			out = append(out, c)
		}
	}
	return append(out, maxResident)
}

// BestSWL sweeps static CTA limits for the benchmark and returns the
// best-performing limit and its result (the paper's Best-SWL oracle).
// The full-residency limit (== plain baseline scheduling order) is part of
// the sweep, so Best-SWL is never worse than baseline. If any sweep point
// fails, BestSWL fails: an oracle picked over a partial sweep would be
// silently wrong, so the errors are joined and reported instead.
func (r *Runner) BestSWL(ctx context.Context, bench string) (int, *sim.Result, error) {
	b, ok := workload.ByName(bench)
	if !ok {
		return 0, nil, &RunError{Bench: bench, Policy: "Best-SWL", Phase: PhaseSetup,
			Err: fmt.Errorf("%w %q", ErrUnknownBench, bench)}
	}
	return r.bestSWLOver(ctx, bench, sim.MaxResidentCTAs(&r.Cfg.GPU, b.Kernel))
}

// bestSWLOver runs the Best-SWL sweep for an explicit residency bound. A
// bound below 1 is rejected up front with ErrBadConfig: the sweep would
// contain CTA limit 0, which can never launch a CTA and only dies via
// watchdog.
func (r *Runner) bestSWLOver(ctx context.Context, bench string, maxRes int) (int, *sim.Result, error) {
	limits := swlSweepLimits(maxRes)
	if len(limits) == 0 {
		return 0, nil, &RunError{Bench: bench, Policy: "Best-SWL", Phase: PhaseSetup,
			Err: fmt.Errorf("%w: max resident CTAs %d leaves no CTA limit to sweep", ErrBadConfig, maxRes)}
	}

	type out struct {
		limit int
		res   *sim.Result
		err   error
	}
	// The sweep shares the bounded pool with ForEachBench instead of
	// fanning out one goroutine per limit.
	results := make([]out, len(limits))
	r.forEachIndex(len(limits), func(i int) {
		res, err := r.Run(ctx, bench, schemes.SWL{Limit: limits[i]})
		results[i] = out{limits[i], res, err}
	})

	var errs []error
	for _, o := range results {
		if o.err != nil {
			errs = append(errs, o.err)
		}
	}
	if len(errs) > 0 {
		return 0, nil, errors.Join(errs...)
	}
	best := results[0]
	for _, o := range results[1:] {
		if o.res.IPC() > best.res.IPC() {
			best = o
		}
	}
	return best.limit, best.res, nil
}

// MustBestSWL is BestSWL with a background context, panicking on failure.
func (r *Runner) MustBestSWL(bench string) (int, *sim.Result) {
	lim, res, err := r.BestSWL(context.Background(), bench)
	if err != nil {
		panic(err)
	}
	return lim, res
}

// Sweep is the outcome of a per-benchmark sweep. Failed points are never
// silently zeroed: Vals[i] is only meaningful where Errs[i] is nil, and
// every error is reported (as a *RunError where the failure came from the
// run engine).
type Sweep struct {
	// Benches lists the benchmark names in Table 2 order.
	Benches []string
	// Vals holds the per-benchmark values; Vals[i] is valid iff
	// Errs[i] == nil.
	Vals []float64
	// Errs holds the per-benchmark failures (nil for successful points).
	Errs []error
}

// Failed returns the benchmarks whose points failed, in sweep order.
func (s *Sweep) Failed() []string {
	var out []string
	for i, err := range s.Errs {
		if err != nil {
			out = append(out, s.Benches[i])
		}
	}
	return out
}

// Err joins every point failure (nil when the sweep fully succeeded).
func (s *Sweep) Err() error { return errors.Join(s.Errs...) }

// OKVals returns the values of the successful points only.
func (s *Sweep) OKVals() []float64 {
	var out []float64
	for i, err := range s.Errs {
		if err == nil {
			out = append(out, s.Vals[i])
		}
	}
	return out
}

// ForEachBench runs fn for every benchmark name — at most SweepWorkers
// concurrently — and collects per-benchmark values in Table 2 order. A
// failed point is recorded in the sweep's Errs slice and skipped; it never
// aborts the other benchmarks, so one bad point cannot take down a
// fleet-sized campaign.
func (r *Runner) ForEachBench(ctx context.Context, fn func(ctx context.Context, bench string) (float64, error)) *Sweep {
	names := workload.Names()
	s := &Sweep{
		Benches: names,
		Vals:    make([]float64, len(names)),
		Errs:    make([]error, len(names)),
	}
	r.forEachIndex(len(names), func(i int) {
		name := names[i]
		defer func() {
			// fn is caller code: isolate its panics exactly like the
			// engine's own, so a sweep survives a bad closure too — and the
			// pool worker moves on to the next benchmark.
			if p := recover(); p != nil {
				if re, ok := p.(*RunError); ok {
					s.Errs[i] = re
					return
				}
				s.Errs[i] = &RunError{Bench: name, Phase: PhaseRun,
					Err: fmt.Errorf("%w: %v", ErrPanic, p), Stack: string(debug.Stack())}
			}
		}()
		s.Vals[i], s.Errs[i] = fn(ctx, name)
	})
	return s
}

// MustForEachBench is ForEachBench for infallible experiment closures: fn
// may use the Must* run methods freely — a panicking point surfaces as the
// sweep panic — and the values come back as a plain slice.
func (r *Runner) MustForEachBench(fn func(bench string) float64) []float64 {
	s := r.ForEachBench(context.Background(), func(_ context.Context, bench string) (float64, error) {
		return fn(bench), nil
	})
	if err := s.Err(); err != nil {
		panic(err)
	}
	return s.Vals
}

// Speedup returns a.IPC()/b.IPC().
func Speedup(a, b *sim.Result) float64 {
	if b.IPC() == 0 {
		return 0
	}
	return a.IPC() / b.IPC()
}

// GeoMean re-exports stats.GeoMean for experiment code.
func GeoMean(xs []float64) float64 { return stats.GeoMean(xs) }

// PairedSpeedupGM aggregates two sweep arms into a per-benchmark-paired
// speedup geometric mean: GM over arm.Vals[i]/base.Vals[i].
//
// Pairing is what GeoMean-over-OKVals cannot give: when the arms failed on
// *different* benchmarks, dividing their independently shrunken geomeans
// silently compares apples to oranges. Here a bench that failed in only
// one arm is an error; benches that failed in both arms drop from both
// sides consistently, and the returned n says how many pairs the mean
// actually covers.
func PairedSpeedupGM(arm, base *Sweep) (gm float64, n int, err error) {
	if len(arm.Benches) != len(base.Benches) {
		return 0, 0, fmt.Errorf("harness: paired speedup over different sweeps: %d vs %d benches",
			len(arm.Benches), len(base.Benches))
	}
	var num, den []float64
	var mismatched []string
	for i := range arm.Benches {
		if arm.Benches[i] != base.Benches[i] {
			return 0, 0, fmt.Errorf("harness: paired speedup over different sweeps: bench %d is %q vs %q",
				i, arm.Benches[i], base.Benches[i])
		}
		armOK, baseOK := arm.Errs[i] == nil, base.Errs[i] == nil
		switch {
		case armOK && baseOK:
			num = append(num, arm.Vals[i])
			den = append(den, base.Vals[i])
		case armOK != baseOK:
			mismatched = append(mismatched, arm.Benches[i])
		}
	}
	if len(mismatched) > 0 {
		return 0, 0, fmt.Errorf("harness: paired speedup arms mismatch: %v failed in only one arm", mismatched)
	}
	gm, err = stats.PairedGeoMean(num, den)
	if err != nil {
		return 0, 0, err
	}
	return gm, len(num), nil
}

// Package linebacker is the public API of the Linebacker reproduction: a
// cycle-level GPU simulator (SMs with GTO schedulers, L1/L2/DRAM hierarchy,
// banked register file) plus the Linebacker victim-caching architecture of
// Oh et al., ISCA 2019, and the comparison schemes the paper evaluates
// against (Best-SWL, PCAL, CERF, CacheExt).
//
// Quick start:
//
//	cfg := linebacker.FastConfig()
//	bench, _ := linebacker.Benchmark("S2")
//	pol, _ := linebacker.NewScheme("linebacker")
//	res, err := linebacker.Run(cfg, bench.Kernel, pol, 16)
//	fmt.Println(res.IPC())
//
// Custom kernels are described declaratively with NewKernel and LoadSpec;
// see examples/customkernel.
package linebacker

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"

	"github.com/linebacker-sim/linebacker/internal/chaos"
	"github.com/linebacker-sim/linebacker/internal/check"
	"github.com/linebacker-sim/linebacker/internal/config"
	"github.com/linebacker-sim/linebacker/internal/core"
	"github.com/linebacker-sim/linebacker/internal/energy"
	"github.com/linebacker-sim/linebacker/internal/memtypes"
	"github.com/linebacker-sim/linebacker/internal/schemes"
	"github.com/linebacker-sim/linebacker/internal/sim"
	"github.com/linebacker-sim/linebacker/internal/workload"
)

// Config is the simulated GPU + Linebacker configuration (Tables 1 and 3).
type Config = config.Config

// Policy is a cache/scheduling scheme attached to a run.
type Policy = sim.Policy

// Result aggregates a finished simulation.
type Result = sim.Result

// GPU is a configured simulation instance.
type GPU = sim.GPU

// Kernel describes a synthetic workload.
type Kernel = workload.Kernel

// LoadSpec describes one static load or store of a kernel.
type LoadSpec = workload.LoadSpec

// Workload pattern and scope constants, re-exported for kernel authors.
const (
	Streaming = workload.Streaming
	Tiled     = workload.Tiled
	Irregular = workload.Irregular

	Global  = workload.Global
	PerSM   = workload.PerSM
	PerCTA  = workload.PerCTA
	PerWarp = workload.PerWarp
)

// EnergyBreakdown itemises a run's energy.
type EnergyBreakdown = energy.Breakdown

// DefaultConfig returns the paper's full Table 1 configuration
// (16 SMs, 50 000-cycle monitoring windows).
func DefaultConfig() Config { return config.Default() }

// FastConfig returns the 4-SM experiment configuration with shared
// resources scaled proportionally — the configuration the repository's
// benchmarks and EXPERIMENTS.md use.
func FastConfig() Config {
	cfg := config.Default()
	cfg.GPU.NumSMs = 4
	cfg.GPU.DRAMBandwidthGBs = 176.25
	cfg.GPU.DRAMChannels = 4
	cfg.GPU.L2Bytes = 512 * 1024
	cfg.LB.WindowCycles = 12500
	return cfg
}

// Trace is a recorded per-warp memory trace, replayable through the engine.
type Trace = workload.Trace

// TraceRecorder writes the replayable trace format from a running
// simulation (attach Observe to sim.SM.Probe via RecordTrace).
type TraceRecorder = workload.TraceRecorder

// ParseTrace reads the text trace format: one "<warp> <pc> <L|S> <addr>"
// event per line. Build a replay kernel with Trace.Kernel.
func ParseTrace(r io.Reader) (*Trace, error) { return workload.ParseTrace(r) }

// NewTraceRecorder builds a recorder for RecordTrace.
func NewTraceRecorder(w io.Writer) *TraceRecorder { return workload.NewTraceRecorder(w) }

// RecordTrace attaches the recorder to every SM of an un-started simulation
// so the run's full memory trace is written in the replayable format.
func RecordTrace(g *GPU, rec *TraceRecorder) {
	for _, sm := range g.SMs() {
		sm.Probe = func(warpSlot int, pc uint32, line memtypes.LineAddr, isStore bool, cycle int64) {
			rec.Observe(warpSlot, pc, line, isStore)
		}
	}
}

// ParseKernelJSON builds a kernel from its JSON description (see
// examples/customkernel/sparse-solver.json for the format).
func ParseKernelJSON(data []byte) (*Kernel, error) {
	return workload.ParseKernelJSON(data)
}

// KernelJSON serialises a kernel built with NewKernel back to JSON.
func KernelJSON(k *Kernel, computePerLoad, computeLatency int) ([]byte, error) {
	return workload.KernelJSON(k, computePerLoad, computeLatency)
}

// NewKernel assembles a synthetic kernel; see workload.NewKernel.
func NewKernel(name string, loads, stores []LoadSpec, computePerLoad, computeLatency, iterations, warpsPerCTA, regsPerThread, gridCTAs int) *Kernel {
	return workload.NewKernel(name, loads, stores, computePerLoad, computeLatency, iterations, warpsPerCTA, regsPerThread, gridCTAs)
}

// Benchmarks returns the 20 Table 2 application models. Their kernels are
// shared by every caller and read-only; a caller that needs a variant
// copies one first, as Kernel.WithSeed does.
func Benchmarks() []workload.Benchmark { return workload.All() }

// Benchmark looks up one Table 2 application model by code (S2, BI, ...).
func Benchmark(name string) (workload.Benchmark, bool) { return workload.ByName(name) }

// SchemeNames lists the scheme specifiers NewScheme accepts.
func SchemeNames() []string {
	return []string{
		"baseline", "swl:<n>", "ccws", "pcal", "cerf", "cacheext",
		"linebacker", "svc", "vc", "lb+cacheext", "pcal+svc", "pcal+cerf",
	}
}

// NewScheme builds a policy from a specifier:
//
//	baseline      Table 1 GPU, GTO scheduling
//	swl:<n>       static CTA limit of n per SM (sweep n for Best-SWL)
//	ccws          cache-conscious wavefront scheduling (MICRO '12)
//	pcal          priority-based cache allocation (HPCA '15)
//	cerf          cache-emulated register file (MICRO '16)
//	cacheext      idealised L1 enlarged by unused register bytes
//	linebacker    the full Linebacker architecture
//	svc           selective victim caching only (no CTA throttling)
//	vc            preserve-all victim caching (no selection, no throttling)
//	lb+cacheext   Linebacker on top of the CacheExt idealisation
//	pcal+svc      PCAL combined with selective victim caching
//	pcal+cerf     PCAL combined with CERF
func NewScheme(spec string) (Policy, error) {
	switch {
	case spec == "baseline":
		return sim.Baseline{}, nil
	case strings.HasPrefix(spec, "swl:"):
		n, err := strconv.Atoi(strings.TrimPrefix(spec, "swl:"))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("linebacker: bad SWL limit in %q", spec)
		}
		return schemes.SWL{Limit: n}, nil
	case spec == "ccws":
		return schemes.CCWS{}, nil
	case spec == "pcal":
		return schemes.PCAL{}, nil
	case spec == "cerf":
		return schemes.CERF{}, nil
	case spec == "cacheext":
		return schemes.CacheExt{}, nil
	case spec == "linebacker" || spec == "lb":
		return core.New(), nil
	case spec == "svc":
		return core.NewWith(core.Options{Selection: true}), nil
	case spec == "vc":
		return core.NewWith(core.Options{Selection: false}), nil
	case spec == "lb+cacheext":
		return schemes.Combine("LB+CacheExt", schemes.CacheExt{}, core.New()), nil
	case spec == "pcal+svc":
		return schemes.Combine("PCAL+SVC", schemes.PCAL{},
			core.NewWith(core.Options{Selection: true})), nil
	case spec == "pcal+cerf":
		return schemes.Combine("PCAL+CERF", schemes.CERF{}, schemes.PCAL{}), nil
	default:
		return nil, fmt.Errorf("linebacker: unknown scheme %q (see SchemeNames)", spec)
	}
}

// New builds a simulation of the kernel under the policy without running it
// (for callers that want to step or probe). When cfg.Check is set, the
// runtime invariant checker rides along and any conservation-law violation
// aborts the run. When cfg.Chaos arms a fault, the deterministic chaos
// injector rides along too (see internal/chaos).
func New(cfg Config, k *Kernel, pol Policy) (*GPU, error) {
	g, err := sim.New(cfg, k, pol)
	if err != nil {
		return nil, err
	}
	if cfg.Check {
		check.Attach(g)
	}
	chaos.Attach(g)
	return g, nil
}

// Run simulates the kernel under the policy for the given number of
// monitoring windows (0 = run the kernel to completion) and collects the
// result.
func Run(cfg Config, k *Kernel, pol Policy, windows int) (*Result, error) {
	return RunContext(context.Background(), cfg, k, pol, windows)
}

// RunContext is Run with cooperative cancellation: the simulation checks
// ctx at every window boundary and aborts with the cancellation cause. A
// cancelled run returns no partial result.
func RunContext(ctx context.Context, cfg Config, k *Kernel, pol Policy, windows int) (*Result, error) {
	g, err := New(cfg, k, pol)
	if err != nil {
		return nil, err
	}
	if _, err := g.RunCtx(ctx, int64(windows)*int64(cfg.LB.WindowCycles)); err != nil {
		return nil, err
	}
	return g.Collect(), nil
}

// Energy computes the event-energy breakdown of a result.
func Energy(cfg *Config, r *Result) EnergyBreakdown {
	return energy.Compute(cfg, r)
}

// EnergyPerInstruction returns joules per retired warp instruction, the
// fixed-work-comparable energy metric.
func EnergyPerInstruction(cfg *Config, r *Result) float64 {
	return energy.PerInstruction(cfg, r)
}

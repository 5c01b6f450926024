// Package config defines the simulated GPU and Linebacker configurations.
//
// The defaults reproduce Table 1 (baseline GPU) and Table 3 (Linebacker
// microarchitecture) of the ISCA '19 paper. All sizes are bytes unless a
// field name says otherwise.
package config

import (
	"errors"
	"fmt"
)

// LineSize is the cache-line and warp-register size in bytes. The paper
// fixes both to 128 B so an evicted line maps onto one warp register.
const LineSize = 128

// GPU describes the baseline GPU of Table 1.
type GPU struct {
	// NumSMs is the number of streaming multiprocessors.
	NumSMs int
	// ClockMHz is the core clock frequency in MHz.
	ClockMHz int
	// SIMDWidth is the number of threads per warp.
	SIMDWidth int
	// MaxThreadsPerSM, MaxWarpsPerSM and MaxCTAsPerSM are the hardware
	// residency limits of one SM.
	MaxThreadsPerSM int
	MaxWarpsPerSM   int
	MaxCTAsPerSM    int
	// NumSchedulers is the number of warp schedulers per SM (GTO policy).
	NumSchedulers int

	// RegFileBytes is the register file capacity per SM.
	RegFileBytes int
	// RegFileBanks is the number of register file banks per SM.
	RegFileBanks int
	// SharedMemBytes is the Table 1 shared memory capacity per SM. It is
	// validated and printed in Table 1, nothing more: kernels declare no
	// shared memory, so it limits no occupancy (MaxResidentCTAs ignores
	// it; DESIGN.md §4).
	SharedMemBytes int

	// L1 data cache geometry per SM.
	L1Bytes int
	L1Ways  int
	L1MSHRs int
	// L1HitLatency is the load-to-use latency of an L1 hit in cycles.
	L1HitLatency int

	// L2 shared cache geometry.
	L2Bytes int
	L2Ways  int
	// L2Latency is the minimum L1-miss-to-L2-hit latency in cycles
	// (interconnect + tag + data). The paper quotes "minimum 200 cycles".
	L2Latency int

	// DRAM configuration.
	DRAMBandwidthGBs float64 // aggregate off-chip bandwidth, GB/s
	DRAMChannels     int
	DRAMBanksPerChan int
	DRAM             DRAMTiming

	// MaxWarpMLP is the per-warp memory-level parallelism: the number of
	// outstanding line requests a warp may have before it stalls. Real SMs
	// keep many loads in flight per warp (score-boarded registers).
	MaxWarpMLP int
}

// DRAMTiming holds the Table 1 DRAM timing parameters. internal/dram
// applies RCD, RP, RC, CL and WR unconverted, as core cycles. RRD and RAS
// are validated and printed in Table 1 but not modelled (DESIGN.md §4).
type DRAMTiming struct {
	RCD float64
	RP  float64
	RC  float64
	RRD float64 // unmodelled: no activate-to-activate spacing across banks
	CL  float64
	WR  float64
	RAS float64 // unmodelled on its own: only RC spaces activates to one bank
}

// Linebacker describes the Table 3 microarchitectural configuration of the
// Linebacker structures.
type Linebacker struct {
	// WindowCycles is the IPC and per-load locality monitoring period.
	WindowCycles int
	// HitThreshold is the cache (L1+VTT) hit-ratio above which a load is
	// classified as high locality.
	HitThreshold float64
	// IPCVarUpper and IPCVarLower are the fractional IPC-variation bounds
	// that trigger throttling one more CTA (upper) or re-activating an
	// inactive CTA (lower).
	IPCVarUpper float64
	IPCVarLower float64
	// VTTWays is the set associativity of one victim tag table partition.
	VTTWays int
	// MaxPartitions is the maximum number of VTT partitions.
	MaxPartitions int
	// VPAccessLatency is the latency in cycles to probe one VTT partition.
	VPAccessLatency int
	// RegOffset is the first register number (exclusive) usable as victim
	// storage: victim lines map to RN in (RegOffset, RegFile registers).
	RegOffset int
	// LMEntries is the number of load-monitor entries (hashed-PC indexed).
	LMEntries int
	// HPCBits is the width of the hashed PC.
	HPCBits int
	// BackupBufEntries is the register backup/restore buffer depth.
	BackupBufEntries int
	// MaxMonitorWindows bounds how many windows locality monitoring may run
	// before Linebacker gives up (the paper monitors until two consecutive
	// windows agree or the kernel ends; most apps converge in two).
	MaxMonitorWindows int
}

// Energy holds per-access energies (pJ) for the energy model. The four
// Linebacker structure energies are the paper's Table 3 CACTI numbers; the
// remaining entries are conventional per-event costs used only for relative
// comparisons between schemes.
type Energy struct {
	CTAManagerAccessPJ float64
	HPCAccessPJ        float64
	LMAccessPJ         float64
	VTTAccessPJ        float64

	RegFileAccessPJ float64 // one 128 B warp-register read/write
	L1AccessPJ      float64 // one L1 tag+data access
	L2AccessPJ      float64 // one L2 access
	DRAMAccessPJ    float64 // one 128 B DRAM transfer
	ExecPJ          float64 // one warp instruction executed
	StaticWattsSM   float64 // per-SM static power
}

// ChaosStages lists the GPU.Step phases a chaos panic can target, in
// pipeline order (see sim.FaultInjector).
var ChaosStages = []string{"dispatch", "sm", "l2", "dram", "response"}

// Chaos configures the deterministic fault injector (internal/chaos). All
// faults are driven by (Seed, cycle, stage) so a chaos run is exactly as
// reproducible as a clean one, and every Chaos field is part of the harness
// memo fingerprint so a faulted run can never alias a clean cache entry.
type Chaos struct {
	// Enabled turns injection on; with it false the other fields are inert.
	Enabled bool
	// Seed drives the injector's own PRNG (victim-SM choice, corruption
	// magnitude). Independent from Config.Seed so the same workload can be
	// chaos-tested under many fault placements.
	Seed uint64
	// PanicStage and PanicCycle force a panic the first time the named
	// Step stage (see ChaosStages) executes at or after PanicCycle.
	// PanicCycle 0 disables the fault.
	PanicStage string
	PanicCycle int64
	// StallDRAMCycle freezes the DRAM model from that cycle on: no request
	// is scheduled or completed, livelocking any run that still needs
	// memory. 0 disables.
	StallDRAMCycle int64
	// CorruptStatsCycle bumps a load-outcome counter on one SM at that
	// cycle, tripping the internal/check conservation rules. 0 disables.
	CorruptStatsCycle int64
	// Bench scopes every armed fault to runs of the named kernel (the
	// Table 2 benchmark code); empty means every run. This is how a sweep
	// service faults exactly one point of a 20-benchmark request with a
	// single chaos spec: the spec rides in the request config unchanged,
	// and the injector only attaches where the kernel name matches.
	Bench string
}

// Active reports whether any fault is armed.
func (c *Chaos) Active() bool {
	return c.Enabled && (c.PanicCycle > 0 || c.StallDRAMCycle > 0 || c.CorruptStatsCycle > 0)
}

// Config bundles everything a simulation run needs.
type Config struct {
	GPU    GPU
	LB     Linebacker
	Energy Energy
	// Seed drives the deterministic workload PRNG.
	Seed uint64
	// Check enables the runtime invariant checker (internal/check) on every
	// run built through the top-level API and the experiment harness: the
	// engine's conservation laws are verified while the simulation runs and
	// any violation aborts the run. Off by default — checking costs time.
	Check bool
	// Strict disables per-SM sleeping: every SM ticks in every cycle,
	// exactly as the pre-skip engine did. The default (false) lets an SM
	// sleep through its provably idle cycles, in which its front end only
	// counts its idle schedulers and stalled LSU head while its policy's
	// OnCycle still runs; the rest of the machine ticks in every cycle in
	// both modes. Results are bit-identical in both modes — the
	// field is deliberately excluded from the harness memo fingerprint,
	// and a test matrix proves both properties (DESIGN.md §10).
	Strict bool
	// Chaos configures deterministic fault injection (internal/chaos).
	Chaos Chaos
}

// Default returns the paper's baseline configuration (Tables 1 and 3).
func Default() Config {
	return Config{
		GPU: GPU{
			NumSMs:           16,
			ClockMHz:         1126,
			SIMDWidth:        32,
			MaxThreadsPerSM:  2048,
			MaxWarpsPerSM:    64,
			MaxCTAsPerSM:     32,
			NumSchedulers:    4,
			RegFileBytes:     256 * 1024,
			RegFileBanks:     32,
			SharedMemBytes:   96 * 1024,
			L1Bytes:          48 * 1024,
			L1Ways:           8,
			L1MSHRs:          64,
			L1HitLatency:     24,
			L2Bytes:          2048 * 1024,
			L2Ways:           8,
			L2Latency:        200,
			DRAMBandwidthGBs: 352.5,
			DRAMChannels:     8,
			DRAMBanksPerChan: 8,
			DRAM: DRAMTiming{
				RCD: 12, RP: 12, RC: 40, RRD: 5.5, CL: 12, WR: 12, RAS: 28,
			},
			MaxWarpMLP: 4,
		},
		LB: Linebacker{
			WindowCycles:      50000,
			HitThreshold:      0.20,
			IPCVarUpper:       0.10,
			IPCVarLower:       -0.10,
			VTTWays:           4,
			MaxPartitions:     8,
			VPAccessLatency:   3,
			RegOffset:         511,
			LMEntries:         32,
			HPCBits:           5,
			BackupBufEntries:  6,
			MaxMonitorWindows: 8,
		},
		Energy: Energy{
			CTAManagerAccessPJ: 1.94,
			HPCAccessPJ:        0.09,
			LMAccessPJ:         0.32,
			VTTAccessPJ:        2.05,
			RegFileAccessPJ:    48.0,
			L1AccessPJ:         60.0,
			L2AccessPJ:         240.0,
			DRAMAccessPJ:       4000.0,
			ExecPJ:             20.0,
			StaticWattsSM:      1.2,
		},
		Seed: 1,
	}
}

// L1Sets returns the number of L1 sets for the configured geometry.
func (g *GPU) L1Sets() int { return g.L1Bytes / (LineSize * g.L1Ways) }

// WarpRegisters returns the number of 128 B warp-registers in the RF.
func (g *GPU) WarpRegisters() int { return g.RegFileBytes / LineSize }

// BytesPerCycle returns the off-chip DRAM bandwidth in bytes per core cycle.
func (g *GPU) BytesPerCycle() float64 {
	return g.DRAMBandwidthGBs * 1e9 / (float64(g.ClockMHz) * 1e6)
}

// Validate reports the first configuration inconsistency found, if any.
func (c *Config) Validate() error {
	g := &c.GPU
	switch {
	case g.NumSMs <= 0:
		return errors.New("config: NumSMs must be positive")
	case g.ClockMHz <= 0:
		return errors.New("config: ClockMHz must be positive")
	case g.SIMDWidth <= 0:
		return errors.New("config: SIMDWidth must be positive")
	case g.MaxThreadsPerSM <= 0 || g.MaxWarpsPerSM <= 0 || g.MaxCTAsPerSM <= 0:
		return errors.New("config: residency limits must be positive")
	case g.SharedMemBytes < 0:
		return errors.New("config: SharedMemBytes must be non-negative")
	case g.RegFileBytes%LineSize != 0:
		return fmt.Errorf("config: RegFileBytes %d not a multiple of line size", g.RegFileBytes)
	case g.L1Bytes%(LineSize*g.L1Ways) != 0:
		return fmt.Errorf("config: L1 %d B not divisible into %d-way 128 B sets", g.L1Bytes, g.L1Ways)
	case g.L1MSHRs <= 0:
		return errors.New("config: L1MSHRs must be positive")
	case g.L1HitLatency <= 0:
		return errors.New("config: L1HitLatency must be positive")
	case g.L2Bytes%(LineSize*g.L2Ways) != 0:
		return fmt.Errorf("config: L2 %d B not divisible into %d-way 128 B sets", g.L2Bytes, g.L2Ways)
	case g.L2Latency <= 0:
		return errors.New("config: L2Latency must be positive")
	case g.DRAMBandwidthGBs <= 0:
		return errors.New("config: DRAMBandwidthGBs must be positive")
	case g.DRAMChannels <= 0 || g.DRAMBanksPerChan <= 0:
		return errors.New("config: DRAM geometry must be positive")
	case g.NumSchedulers <= 0:
		return errors.New("config: NumSchedulers must be positive")
	case g.RegFileBanks <= 0:
		return errors.New("config: RegFileBanks must be positive")
	case g.MaxWarpMLP <= 0:
		return errors.New("config: MaxWarpMLP must be positive")
	}
	if err := g.DRAM.validate(); err != nil {
		return err
	}
	l := &c.LB
	switch {
	case l.WindowCycles <= 0:
		return errors.New("config: WindowCycles must be positive")
	case l.VTTWays <= 0 || l.VTTWays > 32:
		return fmt.Errorf("config: VTTWays %d out of range [1,32]", l.VTTWays)
	case l.MaxPartitions <= 0:
		return errors.New("config: MaxPartitions must be positive")
	case l.VPAccessLatency < 0:
		return errors.New("config: VPAccessLatency must be non-negative")
	case l.MaxMonitorWindows <= 0:
		return errors.New("config: MaxMonitorWindows must be positive")
	case l.HitThreshold < 0 || l.HitThreshold > 1:
		return fmt.Errorf("config: HitThreshold %v out of [0,1]", l.HitThreshold)
	case l.IPCVarUpper < l.IPCVarLower:
		return errors.New("config: IPCVarUpper below IPCVarLower")
	case l.RegOffset < 0 || l.RegOffset >= g.WarpRegisters():
		return fmt.Errorf("config: RegOffset %d outside register file (%d warp registers)", l.RegOffset, g.WarpRegisters())
	case l.LMEntries <= 0 || l.HPCBits <= 0 || (1<<l.HPCBits) < l.LMEntries:
		return fmt.Errorf("config: LM %d entries not addressable by %d-bit HPC", l.LMEntries, l.HPCBits)
	case l.BackupBufEntries <= 0:
		return errors.New("config: BackupBufEntries must be positive")
	}
	return c.Chaos.validate()
}

// validate rejects inconsistent chaos configurations. A disabled Chaos block
// is always valid so zero-value configs stay usable.
func (c *Chaos) validate() error {
	if !c.Enabled {
		if c.Bench != "" {
			return errors.New("config: chaos bench scope set but chaos disabled")
		}
		return nil
	}
	switch {
	case c.PanicCycle < 0 || c.StallDRAMCycle < 0 || c.CorruptStatsCycle < 0:
		return errors.New("config: chaos fault cycles must be non-negative")
	case !c.Active():
		return errors.New("config: chaos enabled but no fault armed")
	}
	if c.PanicCycle > 0 {
		ok := false
		for _, s := range ChaosStages {
			if s == c.PanicStage {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("config: chaos panic stage %q not in %v", c.PanicStage, ChaosStages)
		}
	}
	return nil
}

// validate rejects non-positive DRAM timing parameters: a zero timing
// collapses the bank state machine into zero-cycle transitions.
func (t *DRAMTiming) validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"RCD", t.RCD}, {"RP", t.RP}, {"RC", t.RC}, {"RRD", t.RRD},
		{"CL", t.CL}, {"WR", t.WR}, {"RAS", t.RAS},
	} {
		if p.v <= 0 {
			return fmt.Errorf("config: DRAM timing %s must be positive", p.name)
		}
	}
	return nil
}

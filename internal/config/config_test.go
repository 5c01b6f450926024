package config

import "testing"

func TestDefaultMatchesTable1(t *testing.T) {
	cfg := Default()
	g := &cfg.GPU
	if g.NumSMs != 16 || g.ClockMHz != 1126 || g.SIMDWidth != 32 {
		t.Fatalf("core config = %+v", g)
	}
	if g.MaxThreadsPerSM != 2048 || g.MaxWarpsPerSM != 64 || g.MaxCTAsPerSM != 32 {
		t.Fatal("residency limits differ from Table 1")
	}
	if g.RegFileBytes != 256*1024 || g.SharedMemBytes != 96*1024 {
		t.Fatal("storage sizes differ from Table 1")
	}
	if g.L1Bytes != 48*1024 || g.L1Ways != 8 || g.L1MSHRs != 64 {
		t.Fatal("L1 differs from Table 1")
	}
	if g.L2Bytes != 2048*1024 || g.L2Ways != 8 {
		t.Fatal("L2 differs from Table 1")
	}
	if g.DRAMBandwidthGBs != 352.5 {
		t.Fatal("DRAM bandwidth differs from Table 1")
	}
	if g.DRAM.RCD != 12 || g.DRAM.RP != 12 || g.DRAM.RC != 40 ||
		g.DRAM.RRD != 5.5 || g.DRAM.CL != 12 || g.DRAM.WR != 12 || g.DRAM.RAS != 28 {
		t.Fatal("DRAM timing differs from Table 1")
	}
}

func TestDefaultMatchesTable3(t *testing.T) {
	cfg := Default()
	l := &cfg.LB
	if l.WindowCycles != 50000 || l.HitThreshold != 0.20 {
		t.Fatal("monitoring config differs from Table 3")
	}
	if l.IPCVarUpper != 0.10 || l.IPCVarLower != -0.10 {
		t.Fatal("IPC bounds differ from Table 3")
	}
	if l.VTTWays != 4 || l.MaxPartitions != 8 || l.VPAccessLatency != 3 {
		t.Fatal("VTT config differs from Table 3")
	}
	e := &cfg.Energy
	if e.CTAManagerAccessPJ != 1.94 || e.HPCAccessPJ != 0.09 ||
		e.LMAccessPJ != 0.32 || e.VTTAccessPJ != 2.05 {
		t.Fatal("structure energies differ from Table 3")
	}
}

func TestDerivedGeometry(t *testing.T) {
	cfg := Default()
	if got := cfg.GPU.L1Sets(); got != 48 {
		t.Fatalf("L1 sets = %d, want 48", got)
	}
	if got := cfg.GPU.WarpRegisters(); got != 2048 {
		t.Fatalf("warp registers = %d, want 2048", got)
	}
	bpc := cfg.GPU.BytesPerCycle()
	if bpc < 310 || bpc > 320 {
		t.Fatalf("bytes/cycle = %.1f, want ~313", bpc)
	}
}

func TestValidateAcceptsDefault(t *testing.T) {
	cfg := Default()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.GPU.NumSMs = 0 },
		func(c *Config) { c.GPU.SIMDWidth = 0 },
		func(c *Config) { c.GPU.MaxWarpsPerSM = 0 },
		func(c *Config) { c.GPU.RegFileBytes = 1000 },
		func(c *Config) { c.GPU.L1Bytes = 1000 },
		func(c *Config) { c.GPU.L2Bytes = 999 },
		func(c *Config) { c.GPU.NumSchedulers = 0 },
		func(c *Config) { c.GPU.RegFileBanks = 0 },
		func(c *Config) { c.GPU.MaxWarpMLP = 0 },
		func(c *Config) { c.LB.WindowCycles = 0 },
		func(c *Config) { c.LB.VTTWays = 0 },
		func(c *Config) { c.LB.VTTWays = 33 },
		func(c *Config) { c.LB.HitThreshold = 1.5 },
		func(c *Config) { c.LB.IPCVarUpper, c.LB.IPCVarLower = -0.1, 0.1 },
		func(c *Config) { c.LB.RegOffset = -1 },
		func(c *Config) { c.LB.RegOffset = 99999 },
		func(c *Config) { c.LB.LMEntries = 0 },
		func(c *Config) { c.LB.LMEntries = 64 }, // not addressable by 5 bits
		func(c *Config) { c.LB.BackupBufEntries = 0 },
	}
	for i, mutate := range mutations {
		cfg := Default()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

package core

import (
	"math"
	"testing"

	"cloudmc/internal/addrmap"
	"cloudmc/internal/sched"
	"cloudmc/internal/workload"
)

// runWith runs a short simulation with the given mutations applied to
// the default config.
func runWith(t *testing.T, p workload.Profile, mutate func(*Config)) Metrics {
	t.Helper()
	cfg := DefaultConfig(p)
	cfg.WarmupCycles = 30_000
	cfg.MeasureCycles = 150_000
	if mutate != nil {
		mutate(&cfg)
	}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys.Run()
}

func TestMPKILandsNearTarget(t *testing.T) {
	for _, p := range []workload.Profile{workload.DataServing(), workload.TPCHQ6()} {
		m := runWith(t, p, nil)
		lo, hi := 0.7*p.TargetMPKI, 1.3*p.TargetMPKI
		if m.MPKI < lo || m.MPKI > hi {
			t.Errorf("%s: MPKI %.2f outside [%.2f, %.2f]", p.Acronym, m.MPKI, lo, hi)
		}
	}
}

func TestSingleAccessFractionNearTarget(t *testing.T) {
	m := runWith(t, workload.DataServing(), nil)
	if m.SingleAccessFrac < 0.70 || m.SingleAccessFrac > 0.95 {
		t.Errorf("DS single-access %.3f outside calibration band", m.SingleAccessFrac)
	}
}

func TestDSPWMoreIntenseThanSCOW(t *testing.T) {
	scow := runWith(t, workload.WebSearch(), nil)
	dspw := runWith(t, workload.TPCHQ6(), nil)
	if dspw.MPKI <= scow.MPKI {
		t.Errorf("DSP MPKI %.2f not above SCO %.2f", dspw.MPKI, scow.MPKI)
	}
	if dspw.BandwidthUtil <= scow.BandwidthUtil {
		t.Errorf("DSP bandwidth %.3f not above SCO %.3f", dspw.BandwidthUtil, scow.BandwidthUtil)
	}
}

func TestMoreChannelsReduceLatencyForDSP(t *testing.T) {
	// Paper Figure 14: DSP latency falls markedly with channels.
	p := workload.TPCHQ6()
	one := runWith(t, p, nil)
	four := runWith(t, p, func(c *Config) {
		c.Channels = 4
		c.Mapping = addrmap.RoChRaBaCo
	})
	if four.AvgReadLatency >= one.AvgReadLatency {
		t.Errorf("4-channel latency %.1f not below 1-channel %.1f",
			four.AvgReadLatency, one.AvgReadLatency)
	}
	if four.UserIPC <= one.UserIPC {
		t.Errorf("4-channel IPC %.3f not above 1-channel %.3f", four.UserIPC, one.UserIPC)
	}
}

func TestChannelCapacityConstantAcrossSweep(t *testing.T) {
	p := workload.DataServing()
	for _, ch := range []int{1, 2, 4} {
		cfg := DefaultConfig(p)
		cfg.Channels = ch
		if got := cfg.channelGeometry().TotalBytes(); got != cfg.Geometry.TotalBytes() {
			t.Errorf("channels=%d changed capacity to %d", ch, got)
		}
	}
}

func TestClosePolicyCollapsesRowHits(t *testing.T) {
	// Paper Figure 9: close-adaptive preserves almost no hits.
	p := workload.MediaStreaming()
	oapm := runWith(t, p, nil)
	capm := runWith(t, p, func(c *Config) { c.PagePolicy = "CloseAdaptive" })
	// The paper's CAPM collapse is near-total (<6% absolute); our
	// synthetic streams keep the queue-visible share of hits, so we
	// assert a substantial but not total collapse.
	if capm.RowHitRate > 0.8*oapm.RowHitRate {
		t.Errorf("CAPM hit rate %.3f not well below OAPM %.3f", capm.RowHitRate, oapm.RowHitRate)
	}
}

func TestRBPPPreservesMoreHitsThanClose(t *testing.T) {
	// Paper Figure 9: RBPP sits between close-adaptive and OAPM.
	p := workload.MediaStreaming()
	capm := runWith(t, p, func(c *Config) { c.PagePolicy = "CloseAdaptive" })
	rbpp := runWith(t, p, func(c *Config) { c.PagePolicy = "RBPP" })
	if rbpp.RowHitRate <= capm.RowHitRate {
		t.Errorf("RBPP hits %.3f not above CAPM %.3f", rbpp.RowHitRate, capm.RowHitRate)
	}
}

func TestATLASHurtsImbalancedWorkload(t *testing.T) {
	// Paper §4.1.1: ATLAS's long quanta penalize imbalanced scale-out
	// workloads and blow up their memory latency.
	p := workload.MapReduce()
	fr := runWith(t, p, nil)
	atlas := runWith(t, p, func(c *Config) {
		c.Scheduler = sched.ATLAS
		c.SchedOpts.ATLAS = sched.ATLASConfig{
			QuantumCycles: 15_000, Alpha: 0.875,
			StarvationThreshold: 4_000, ScanDepth: 1,
		}
	})
	if atlas.AvgReadLatency <= 1.2*fr.AvgReadLatency {
		t.Errorf("ATLAS latency %.1f not well above FR-FCFS %.1f",
			atlas.AvgReadLatency, fr.AvgReadLatency)
	}
	if atlas.UserIPC >= fr.UserIPC {
		t.Errorf("ATLAS IPC %.3f not below FR-FCFS %.3f", atlas.UserIPC, fr.UserIPC)
	}
	if atlas.IPCDisparity() >= fr.IPCDisparity() {
		t.Errorf("ATLAS disparity %.3f not worse than FR-FCFS %.3f",
			atlas.IPCDisparity(), fr.IPCDisparity())
	}
}

func TestRLWithinReasonOfFRFCFS(t *testing.T) {
	// Paper Figure 1: RL trails FR-FCFS but is not catastrophic.
	p := workload.TPCHQ2()
	fr := runWith(t, p, nil)
	rl := runWith(t, p, func(c *Config) { c.Scheduler = sched.RL })
	ratio := rl.UserIPC / fr.UserIPC
	if ratio > 1.02 || ratio < 0.7 {
		t.Errorf("RL/FR-FCFS IPC ratio %.3f outside (0.7, 1.02)", ratio)
	}
}

func TestWebFrontendIOGrowsWithChannels(t *testing.T) {
	// Paper §4.3: WF's total accesses grow with channel count.
	p := workload.WebFrontend()
	one := runWith(t, p, nil)
	four := runWith(t, p, func(c *Config) { c.Channels = 4 })
	oneTotal := one.ReadsServed + one.WritesServed
	fourTotal := four.ReadsServed + four.WritesServed
	if fourTotal <= oneTotal {
		t.Errorf("4-channel accesses %d not above 1-channel %d", fourTotal, oneTotal)
	}
}

func TestSeedChangesResults(t *testing.T) {
	a := runWith(t, workload.SATSolver(), func(c *Config) { c.Seed = 1 })
	b := runWith(t, workload.SATSolver(), func(c *Config) { c.Seed = 2 })
	if a.Retired == b.Retired && a.RowHits == b.RowHits {
		t.Error("different seeds produced identical results")
	}
}

func TestMappingChangesBehaviour(t *testing.T) {
	p := workload.TPCHQ6()
	base := runWith(t, p, func(c *Config) { c.Channels = 2 })
	alt := runWith(t, p, func(c *Config) {
		c.Channels = 2
		c.Mapping = addrmap.RoRaChBaCo
	})
	if base.RowHits == alt.RowHits && base.Activates == alt.Activates {
		t.Error("mapping scheme had no effect at 2 channels")
	}
}

func TestRLForcedToOpenPagePolicy(t *testing.T) {
	cfg := DefaultConfig(workload.DataServing())
	cfg.Scheduler = sched.RL
	cfg.PagePolicy = "CloseAdaptive"
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, ctl := range sys.Controllers() {
		if ctl.PagePolicy().Name() != "Open" {
			t.Fatalf("RL runs with %q, want Open", ctl.PagePolicy().Name())
		}
	}
}

func TestConfigValidateCatchesErrors(t *testing.T) {
	good := DefaultConfig(workload.DataServing())
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.PagePolicy = "Nope" },
		func(c *Config) { c.Channels = 3 },
		func(c *Config) { c.ClockNum = 0 },
		func(c *Config) { c.MeasureCycles = 0 },
		func(c *Config) { c.MSHRCap = 0 },
		func(c *Config) { c.L2HitLatency = 0 },
		func(c *Config) {
			c.SchedOpts.ATLAS = sched.ATLASConfig{QuantumCycles: 1_000, Alpha: 0.875, ScanDepth: -1}
		},
		func(c *Config) { c.SchedOpts.QoS = sched.QoSConfig{QuantumCycles: 1_000, Alpha: math.NaN()} },
	}
	for i, mutate := range mutations {
		cfg := DefaultConfig(workload.DataServing())
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	// Table 2 checks.
	cfg := DefaultConfig(workload.DataServing())
	if cfg.L1.SizeBytes != 32<<10 || cfg.L1.Ways != 2 || cfg.L1.BlockBytes != 64 {
		t.Error("L1 does not match Table 2 (32KB, 2-way, 64B)")
	}
	if cfg.L2.SizeBytes != 4<<20 || cfg.L2.Ways != 16 {
		t.Error("L2 does not match Table 2 (4MB, 16-way)")
	}
	if cfg.Channels != 1 || cfg.Mapping != addrmap.RoRaBaCoCh {
		t.Error("baseline channel/mapping does not match Table 2")
	}
	if cfg.Scheduler != sched.FRFCFS || cfg.PagePolicy != "OpenAdaptive" {
		t.Error("baseline policies do not match Table 2")
	}
	if cfg.Geometry.Ranks != 2 || cfg.Geometry.Banks != 8 || cfg.Geometry.RowBufferBytes() != 8<<10 {
		t.Error("DRAM organization does not match Table 2")
	}
	if cfg.ClockNum != 5 || cfg.ClockDen != 2 {
		t.Error("clock ratio is not 2GHz:800MHz")
	}
}

func TestSchedulerConfigsMatchPaper(t *testing.T) {
	// Table 3 checks.
	atlas := sched.DefaultATLASConfig()
	if atlas.QuantumCycles != 10_000_000 || atlas.Alpha != 0.875 || atlas.StarvationThreshold != 50_000 {
		t.Error("ATLAS defaults do not match Table 3")
	}
	parbs := sched.DefaultPARBSConfig()
	if parbs.BatchingCap != 5 {
		t.Error("PAR-BS batching cap does not match Table 3")
	}
	rl := sched.DefaultRLConfig()
	if rl.Tables != 32 || rl.TableSize != 256 || rl.Alpha != 0.1 ||
		rl.Gamma != 0.95 || rl.Epsilon != 0.05 || rl.StarvationThreshold != 10_000 {
		t.Error("RL defaults do not match Table 3")
	}
}

func TestMetricsIPCDisparity(t *testing.T) {
	m := Metrics{PerCoreIPC: []float64{0.2, 0.4, 0.1}}
	if got := m.IPCDisparity(); got != 0.25 {
		t.Fatalf("disparity = %f, want 0.25", got)
	}
	empty := Metrics{}
	if empty.IPCDisparity() != 1 {
		t.Fatal("empty disparity should be 1")
	}
}

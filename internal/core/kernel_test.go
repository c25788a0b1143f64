package core

import (
	"math/rand"
	"os"
	"reflect"
	"testing"

	"cloudmc/internal/sched"
	"cloudmc/internal/tenant"
	"cloudmc/internal/workload"
)

// runModes executes one Config under both execution modes — the
// naive per-cycle loop and the event kernel — and fails unless the
// Metrics and final clock agree bit-for-bit. The naive loop ticks
// every component every cycle, so agreement means the kernel observed
// exactly the same event ordering.
func runModes(t *testing.T, cfg Config, label string) Metrics {
	t.Helper()
	m, _ := runModesSys(t, cfg, label)
	return m
}

// runModesSys is runModes returning the kernel-mode System as well, so
// callers can inspect its engine telemetry.
func runModesSys(t *testing.T, cfg Config, label string) (Metrics, *System) {
	t.Helper()
	run := func(ff bool) (Metrics, *System) {
		c := cfg
		c.FastForward = ff
		sys, err := NewSystem(c)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return sys.Run(), sys
	}
	naive, naiveSys := run(false)
	kernel, kernelSys := run(true)
	if naiveSys.cycle != kernelSys.cycle {
		t.Fatalf("%s: final clocks diverged: naive=%d kernel=%d", label, naiveSys.cycle, kernelSys.cycle)
	}
	if !reflect.DeepEqual(naive, kernel) {
		t.Fatalf("%s: event kernel diverged from naive loop:\nnaive: %+v\nkernel: %+v", label, naive, kernel)
	}
	return kernel, kernelSys
}

// declineParks sums Stats.DeclineParks over a system's controllers.
func declineParks(sys *System) uint64 {
	var n uint64
	for _, ctl := range sys.ctrls {
		n += ctl.Stats.DeclineParks
	}
	return n
}

// randomProfile draws a valid profile from the whole parameter space
// the generator supports: any intensity, store mix, fractional CPI,
// MLP depth, burst shape, per-core imbalance, region sizing, core
// count (beyond the paper's 16) and optional DMA traffic.
func randomProfile(rng *rand.Rand) workload.Profile {
	cores := 2 + rng.Intn(23) // 2..24 — crosses the 16-core baseline
	intensity := []float64{1}
	if rng.Intn(2) == 0 {
		intensity = make([]float64, 1+rng.Intn(4))
		for i := range intensity {
			intensity[i] = 0.3 + 2.2*rng.Float64()
		}
	}
	memRefs := 100 + rng.Float64()*300
	p := workload.Profile{
		Name: "Random", Acronym: "RND", Category: workload.SCOW,
		Cores:               cores,
		MemRefsPerKiloInstr: memRefs,
		StoreFraction:       rng.Float64() * 0.5,
		BaseCPI:             1 + rng.Float64()*3,
		TargetMPKI:          1 + rng.Float64()*29,
		TargetRowHit:        0.05 + rng.Float64()*0.55,
		TargetSingleAccess:  0.6 + rng.Float64()*0.3,
		MLPLimit:            1 + rng.Intn(6),
		BurstGapInstr:       rng.Intn(49),
		BurstStoreFraction:  rng.Float64() * 0.6,
		CoreIntensity:       intensity,
		HotBytesPerCore:     uint64(16+rng.Intn(49)) << 10,
		StreamBytes:         uint64(64+rng.Intn(193)) << 20,
		ColdBytes:           uint64(512+rng.Intn(1537)) << 20,
	}
	if rng.Intn(3) == 0 {
		p.IO = workload.IOProfile{
			Enabled:            true,
			BurstsPerMCycle:    20 + rng.Float64()*80,
			ScalesWithChannels: rng.Intn(2) == 0,
			BurstBlocks:        1 + rng.Intn(32),
			WriteFraction:      rng.Float64(),
		}
	}
	return p
}

// TestKernelDifferential is the differential property test of the
// event kernel: random workloads (random traces by construction — the
// generators are seeded stochastic streams) stepped through the naive
// per-cycle loop and the kernel side by side must produce identical
// event orderings and Metrics.
func TestKernelDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("paired simulations are slow")
	}
	kinds := []sched.Kind{sched.FRFCFS, sched.ATLAS, sched.PARBS, sched.FCFSBanks}
	rng := rand.New(rand.NewSource(20260730))
	for trial := 0; trial < 10; trial++ {
		p := randomProfile(rng)
		cfg := DefaultConfig(p)
		cfg.Scheduler = kinds[rng.Intn(len(kinds))]
		cfg.Channels = 1 << rng.Intn(3)
		cfg.Seed = rng.Uint64() | 1
		cfg.WarmupCycles = 2_000
		cfg.MeasureCycles = 10_000
		cfg.WarmupInstrPerCore = 2_000
		cfg.SchedOpts.ATLAS = sched.ATLASConfig{
			QuantumCycles: 3_000, Alpha: 0.875,
			StarvationThreshold: 500, ScanDepth: 2,
		}
		label := p.Acronym + "/" + cfg.Scheduler.String()
		t.Run(label, func(t *testing.T) {
			m := runModes(t, cfg, label)
			if m.Retired == 0 {
				t.Fatalf("%s: degenerate trial retired nothing", label)
			}
		})
	}
}

// TestKernel64CoreEquivalence pins the regime the kernel was built
// for: a 64-core machine must still be bit-identical to the naive
// per-cycle loop.
func TestKernel64CoreEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("paired simulations are slow")
	}
	p := workload.DataServing()
	p.Cores = 64
	cfg := DefaultConfig(p)
	cfg.WarmupCycles = 2_000
	cfg.MeasureCycles = 15_000
	cfg.WarmupInstrPerCore = 2_000
	m := runModes(t, cfg, "DS-64c")
	if m.Retired == 0 {
		t.Fatal("64-core run retired nothing")
	}
}

// TestKernelMixEquivalence covers the colocation stack on the kernel:
// a four-tenant 32-core mix under the QoS scheduler with bank and way
// partitioning enabled, including per-tenant metrics.
func TestKernelMixEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("paired simulations are slow")
	}
	mix := tenant.NewMix("",
		tenant.Spec{Profile: workload.DataServing(), Cores: 8},
		tenant.Spec{Profile: workload.WebFrontend(), Cores: 8},
		tenant.Spec{Profile: workload.TPCHQ6(), Cores: 8},
		tenant.Spec{Profile: workload.MemoryHog(), Cores: 8},
	)
	cfg := DefaultMixConfig(mix)
	cfg.Scheduler = sched.QoS
	cfg.Isolation = Isolation{BankPartition: true, WayPartition: true}
	cfg.WarmupCycles = 2_000
	cfg.MeasureCycles = 15_000
	cfg.WarmupInstrPerCore = 2_000
	m := runModes(t, cfg, "mix-32c")
	if len(m.Tenants) != 4 {
		t.Fatalf("expected 4 tenant breakdowns, got %d", len(m.Tenants))
	}
}

// TestKernelChunkedAdvance checks that kernel-mode Advance composes:
// uneven chunk boundaries (each of which settles the blocked cores'
// stall counters) land on the same state as one call.
func TestKernelChunkedAdvance(t *testing.T) {
	cfg := DefaultConfig(workload.WebSearch())
	cfg.WarmupInstrPerCore = 1_000
	build := func() *System {
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sys.FunctionalWarmup(1_000)
		return sys
	}
	a, b := build(), build()
	a.Advance(9_000)
	for _, n := range []uint64{1, 7, 2_492, 3_000, 3_500} {
		b.Advance(n)
	}
	am, bm := a.collect(9_000), b.collect(9_000)
	if !reflect.DeepEqual(am, bm) {
		t.Fatalf("chunked kernel Advance diverged:\none-shot: %+v\nchunked:  %+v", am, bm)
	}
}

// stepAndAudit single-steps a kernel-mode system and, every time a
// controller's park horizon moves (a park, a re-park, or a
// bank-granular re-arm from an enqueue), replays the parked window
// cycle by cycle against the raw DRAM legality rules: horizons must
// be exact — never late (a legal command inside the window would
// desynchronize the engines) and never early (a spurious wake would
// mask lateness bugs by brute force). It returns the number of
// audited decline parks (parks established by a tick whose policy
// declined legal options).
func stepAndAudit(t *testing.T, cfg Config, cycles uint64, label string) (declines int) {
	t.Helper()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if !sys.kernelOn() {
		t.Fatalf("%s: expected kernel mode", label)
	}
	sys.FunctionalWarmup(2_000)
	last := make([]uint64, len(sys.ctrls))
	lastDecl := make([]uint64, len(sys.ctrls))
	audits := 0
	for i := uint64(0); i < cycles; i++ {
		sys.Step()
		now := sys.cycle - 1
		for ci, ctl := range sys.ctrls {
			d := ctl.Stats.DeclineParks
			declined := d != lastDecl[ci]
			lastDecl[ci] = d
			w := ctl.ParkHorizon()
			if w == last[ci] {
				continue
			}
			last[ci] = w
			if err := ctl.VerifyParkHorizon(now, 4_096); err != nil {
				t.Fatalf("%s: mc%d at cycle %d: %v", label, ci, now, err)
			}
			audits++
			if declined {
				declines++
			}
		}
	}
	if audits == 0 {
		t.Fatalf("%s: no park horizons were ever established — audit exercised nothing", label)
	}
	return declines
}

// declinesParks reports whether scheduler kind implements
// memctrl.DeclineHorizon, i.e. whether its runs must decline-park.
func declinesParks(kind sched.Kind) bool {
	switch kind {
	case sched.ATLAS, sched.QoS, sched.FCFSBanks:
		return true
	}
	return false
}

// TestParkHorizonExactness is the system-level property test of the
// wake-up horizons: randomized profiles (including >16-core configs
// and DMA agents) under every scheduler, plus an isolated multi-tenant
// mix, all audited park by park. RL, which declines options without
// implementing memctrl.DeclineHorizon, is the control that must never
// decline-park; ATLAS, QoS and FCFS_Banks must decline-park at least
// once per trial so the decline audit is exercised.
func TestParkHorizonExactness(t *testing.T) {
	if testing.Short() {
		t.Skip("cycle-stepped audits are slow")
	}
	kinds := []sched.Kind{sched.FRFCFS, sched.ATLAS, sched.PARBS, sched.QoS, sched.FCFSBanks, sched.RL}
	rng := rand.New(rand.NewSource(20260731))
	for trial := 0; trial < 8; trial++ {
		p := randomProfile(rng)
		cfg := DefaultConfig(p)
		cfg.Scheduler = kinds[trial%len(kinds)]
		cfg.Channels = 1 << rng.Intn(2)
		cfg.Seed = rng.Uint64() | 1
		cfg.SchedOpts.ATLAS = sched.ATLASConfig{
			QuantumCycles: 3_000, Alpha: 0.875,
			StarvationThreshold: 500, ScanDepth: 2,
		}
		cfg.SchedOpts.QoS = sched.QoSConfig{
			MaxSlowdownSLO: 1.5, QuantumCycles: 5_000, Alpha: 0.875,
			StarvationThreshold: 1_000, ScanDepth: 4, BaselineLatency: 70,
		}
		label := p.Acronym + "/" + cfg.Scheduler.String()
		t.Run(label, func(t *testing.T) {
			declines := stepAndAudit(t, cfg, 12_000, label)
			if want := declinesParks(cfg.Scheduler); want && declines == 0 {
				t.Fatalf("%s: no decline park was audited", label)
			} else if !want && declines > 0 {
				t.Fatalf("%s: %d decline parks under a policy without DeclineHorizon", label, declines)
			}
		})
	}

	t.Run("isolated-mix-32c", func(t *testing.T) {
		mix := tenant.NewMix("",
			tenant.Spec{Profile: workload.DataServing(), Cores: 8},
			tenant.Spec{Profile: workload.TPCHQ6(), Cores: 8},
			tenant.Spec{Profile: workload.MemoryHog(), Cores: 16},
		)
		cfg := DefaultMixConfig(mix)
		cfg.Scheduler = sched.QoS
		cfg.Isolation = Isolation{BankPartition: true, WayPartition: true}
		cfg.SchedOpts.QoS = sched.QoSConfig{
			MaxSlowdownSLO: 1.5, QuantumCycles: 5_000, Alpha: 0.875,
			StarvationThreshold: 1_000, ScanDepth: 4, BaselineLatency: 70,
		}
		if stepAndAudit(t, cfg, 12_000, "isolated-mix-32c") == 0 {
			t.Fatal("isolated-mix-32c: no decline park was audited")
		}
	})
}

// TestKernelDeclineParkEquivalence pins the decline-park regime on
// the colocation case it was built for: DS:8+HOG:8 with bank and way
// isolation, where ATLAS's bounded scan declines most legal options.
// A 64-cycle starvation threshold and a 2k-cycle quantum make the
// starvation (DeclineHorizon) and quantum (NextPolicyEvent) wake-ups
// fire inside the run; FCFS_Banks covers a per-bank decliner on 4
// channels, and the predictive page policies cover pending closes
// whose stateful ShouldClose calls a decline park skips. Every case
// must decline-park and stay bit-identical to the naive loop.
func TestKernelDeclineParkEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("paired simulations are slow")
	}
	mix := tenant.NewMix("",
		tenant.Spec{Profile: workload.DataServing(), Cores: 8},
		tenant.Spec{Profile: workload.MemoryHog(), Cores: 8},
	)
	base := DefaultMixConfig(mix)
	base.Isolation = Isolation{BankPartition: true, WayPartition: true}
	base.WarmupCycles = 2_000
	base.MeasureCycles = 12_000
	base.WarmupInstrPerCore = 2_000
	base.SchedOpts.ATLAS = sched.ATLASConfig{
		QuantumCycles: 2_000, Alpha: 0.875,
		StarvationThreshold: 64, ScanDepth: 2,
	}
	base.SchedOpts.QoS = sched.QoSConfig{
		MaxSlowdownSLO: 1.5, QuantumCycles: 2_000, Alpha: 0.875,
		StarvationThreshold: 64, ScanDepth: 4, BaselineLatency: 70,
	}
	with := func(kind sched.Kind, channels int, page string) Config {
		c := base
		c.Scheduler = kind
		c.Channels = channels
		c.PagePolicy = page
		return c
	}
	for _, tc := range []struct {
		label string
		cfg   Config
	}{
		{"ATLAS", with(sched.ATLAS, 1, "OpenAdaptive")},
		{"QoS", with(sched.QoS, 1, "OpenAdaptive")},
		{"FCFS_Banks/ch4", with(sched.FCFSBanks, 4, "OpenAdaptive")},
		{"ATLAS/ABPP", with(sched.ATLAS, 1, "ABPP")},
		{"ATLAS/RBPP", with(sched.ATLAS, 1, "RBPP")},
		{"FCFS_Banks/RBPP", with(sched.FCFSBanks, 1, "RBPP")},
	} {
		t.Run(tc.label, func(t *testing.T) {
			m, sys := runModesSys(t, tc.cfg, tc.label)
			if m.Retired == 0 {
				t.Fatalf("%s: degenerate run retired nothing", tc.label)
			}
			if declineParks(sys) == 0 {
				t.Fatalf("%s: the kernel never decline-parked", tc.label)
			}
		})
	}
}

// TestDeclineParkTelemetry checks Stats.DeclineParks: positive under
// ATLAS at scan depth 2, which declines legal options outside its scan
// window, and zero under FR-FCFS (which never declines) and RL (which
// declines but does not implement memctrl.DeclineHorizon, so it stays
// hot).
func TestDeclineParkTelemetry(t *testing.T) {
	mix := tenant.NewMix("",
		tenant.Spec{Profile: workload.DataServing(), Cores: 8},
		tenant.Spec{Profile: workload.MemoryHog(), Cores: 8},
	)
	for _, tc := range []struct {
		kind sched.Kind
		want bool
	}{
		{sched.ATLAS, true},
		{sched.FRFCFS, false},
		{sched.RL, false},
	} {
		cfg := DefaultMixConfig(mix)
		cfg.Scheduler = tc.kind
		cfg.SchedOpts.ATLAS = sched.DefaultATLASConfig()
		cfg.SchedOpts.ATLAS.ScanDepth = 2
		cfg.WarmupCycles = 1_000
		cfg.MeasureCycles = 8_000
		cfg.WarmupInstrPerCore = 1_000
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sys.Run()
		if n := declineParks(sys); (n > 0) != tc.want {
			t.Fatalf("%s: DeclineParks = %d, want positive: %v", tc.kind, n, tc.want)
		}
	}
}

// TestParkCountersWholeRun checks the park telemetry over whole Run
// calls, across the warmup-boundary stats reset: every wake ends a
// counted park, including one left open at the reset, so each
// controller reports Wakes <= Parks and DeclineParks <= Parks. The
// cells are colo-atlas-like DS:8+HOG:8 colocations on one channel, in
// the configurations where controllers park most: ATLAS (idle and
// decline parks) and FR-FCFS (idle parks only), shared and with
// banks+ways isolation, at eight seeds so the reset lands inside a
// park in some of them.
func TestParkCountersWholeRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulations are slow")
	}
	mix := tenant.Pair(workload.DataServing(), workload.MemoryHog(), 8)
	for _, tc := range []struct {
		kind sched.Kind
		iso  Isolation
	}{
		{sched.ATLAS, Isolation{BankPartition: true, WayPartition: true}},
		{sched.ATLAS, Isolation{}},
		{sched.FRFCFS, Isolation{}},
		{sched.FRFCFS, Isolation{BankPartition: true, WayPartition: true}},
	} {
		for seed := uint64(1); seed <= 8; seed++ {
			cfg := DefaultMixConfig(mix)
			cfg.Scheduler = tc.kind
			cfg.Isolation = tc.iso
			cfg.Seed = seed
			cfg.WarmupCycles = 3_000
			cfg.MeasureCycles = 6_000
			cfg.WarmupInstrPerCore = 1_000
			cfg.SchedOpts.ATLAS = sched.ATLASConfig{
				QuantumCycles: 2_000, Alpha: 0.875, StarvationThreshold: 250, ScanDepth: 2,
			}
			sys, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sys.Run()
			for i, ctl := range sys.ctrls {
				st := ctl.Stats
				if st.Wakes > st.Parks || st.DeclineParks > st.Parks {
					t.Errorf("%s/%s seed %d mc%d: wakes %d, decline parks %d, parks %d: want both <= parks",
						tc.kind, tc.iso, seed, i, st.Wakes, st.DeclineParks, st.Parks)
				}
			}
		}
	}
}

// TestKernelWriteHeavyEquivalence pins the park-heavy regime the
// per-bank horizons optimize: a write-dominated profile spends most
// of its time in drain shadows, where enqueues into parked
// controllers take the O(1) re-arm path. Both loop modes must stay
// bit-identical through it.
func TestKernelWriteHeavyEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("paired simulations are slow")
	}
	p := workload.MapReduce()
	p.StoreFraction = 0.6
	p.BurstStoreFraction = 0.7
	p.Acronym = "WH"
	cfg := DefaultConfig(p)
	cfg.WarmupCycles = 2_000
	cfg.MeasureCycles = 15_000
	cfg.WarmupInstrPerCore = 2_000
	m := runModes(t, cfg, "WH")
	if m.WritesServed == 0 {
		t.Fatal("write-heavy run served no writes")
	}
}

// TestKernelChannelMatrix pins fixed multi-channel regimes the random
// differential may not draw: per-channel schedulers (RL included) on
// up to 8 channels, DMA traffic, a cross-channel scheduler, and an
// isolated QoS mix, each bit-identical between the two loop modes.
func TestKernelChannelMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("paired simulations are slow")
	}
	ds4 := DefaultConfig(workload.DataServing())
	ds4.Channels = 4

	io8 := DefaultConfig(workload.MediaStreaming())
	io8.Channels = 8
	io8.Scheduler = sched.PARBS

	bank2 := DefaultConfig(workload.TPCHQ6())
	bank2.Channels = 2
	bank2.Scheduler = sched.FCFSBanks

	rl4 := DefaultConfig(workload.WebSearch())
	rl4.Channels = 4
	rl4.Scheduler = sched.RL

	atlas4 := DefaultConfig(workload.MapReduce())
	atlas4.Channels = 4
	atlas4.Scheduler = sched.ATLAS
	atlas4.SchedOpts.ATLAS = sched.ATLASConfig{
		QuantumCycles: 3_000, Alpha: 0.875,
		StarvationThreshold: 500, ScanDepth: 2,
	}

	mix := tenant.NewMix("",
		tenant.Spec{Profile: workload.DataServing(), Cores: 8},
		tenant.Spec{Profile: workload.WebFrontend(), Cores: 8},
		tenant.Spec{Profile: workload.MemoryHog(), Cores: 8},
	)
	qosMix := DefaultMixConfig(mix)
	qosMix.Channels = 4
	qosMix.Scheduler = sched.QoS
	qosMix.Isolation = Isolation{BankPartition: true, WayPartition: true}

	for _, tc := range []struct {
		label string
		cfg   Config
	}{
		{"DS/FR-FCFS/ch4", ds4},
		{"MS/PAR-BS/ch8", io8},
		{"TPCH-Q6/FCFS_Banks/ch2", bank2},
		{"WS/RL/ch4", rl4},
		{"MR/ATLAS/ch4", atlas4},
		{"mix/QoS/ch4", qosMix},
	} {
		cfg := tc.cfg
		cfg.WarmupCycles = 2_000
		cfg.MeasureCycles = 10_000
		cfg.WarmupInstrPerCore = 2_000
		t.Run(tc.label, func(t *testing.T) {
			if m := runModes(t, cfg, tc.label); m.Retired == 0 {
				t.Fatalf("%s: degenerate run retired nothing", tc.label)
			}
		})
	}
}

// nightly reports whether the long-form nightly suite is requested
// (the scheduled workflow sets MCSIM_NIGHTLY=1; too slow for per-PR
// CI).
func nightly() bool { return os.Getenv("MCSIM_NIGHTLY") != "" }

// TestNightlyKernelDifferential is the long-form differential suite:
// many randomized naive-vs-kernel trials across all five paper
// schedulers and up to 8 channels, at 4x the per-PR cycle counts.
func TestNightlyKernelDifferential(t *testing.T) {
	if !nightly() {
		t.Skip("set MCSIM_NIGHTLY=1 to run the long-form differential suite")
	}
	kinds := []sched.Kind{sched.FRFCFS, sched.ATLAS, sched.PARBS, sched.FCFSBanks, sched.RL}
	rng := rand.New(rand.NewSource(20260809))
	trials := 30
	if testing.Short() {
		// The nightly race soak reruns this suite under -race -short;
		// the detector is ~10x slower, so trade volume for coverage.
		trials = 6
	}
	for trial := 0; trial < trials; trial++ {
		p := randomProfile(rng)
		cfg := DefaultConfig(p)
		cfg.Scheduler = kinds[rng.Intn(len(kinds))]
		cfg.Channels = 1 << rng.Intn(4) // up to 8 channels
		cfg.Seed = rng.Uint64() | 1
		cfg.WarmupCycles = 8_000
		cfg.MeasureCycles = 40_000
		cfg.WarmupInstrPerCore = 4_000
		cfg.SchedOpts.ATLAS = sched.ATLASConfig{
			QuantumCycles: 6_000, Alpha: 0.875,
			StarvationThreshold: 1_000, ScanDepth: 2,
		}
		label := p.Acronym + "/" + cfg.Scheduler.String()
		t.Run(label, func(t *testing.T) {
			if m := runModes(t, cfg, label); m.Retired == 0 {
				t.Fatalf("%s: degenerate trial retired nothing", label)
			}
		})
	}
}

// TestNightlyParkHorizonAudit is the long-form VerifyParkHorizon
// audit: the same brute-force park-by-park replay as
// TestParkHorizonExactness, over more trials and 4x the audited
// window.
func TestNightlyParkHorizonAudit(t *testing.T) {
	if !nightly() {
		t.Skip("set MCSIM_NIGHTLY=1 to run the long-form park-horizon audits")
	}
	kinds := []sched.Kind{sched.FRFCFS, sched.ATLAS, sched.PARBS, sched.QoS, sched.FCFSBanks, sched.RL}
	rng := rand.New(rand.NewSource(20260810))
	for trial := 0; trial < 12; trial++ {
		p := randomProfile(rng)
		cfg := DefaultConfig(p)
		cfg.Scheduler = kinds[trial%len(kinds)]
		cfg.Channels = 1 << rng.Intn(3)
		cfg.Seed = rng.Uint64() | 1
		cfg.SchedOpts.ATLAS = sched.ATLASConfig{
			QuantumCycles: 3_000, Alpha: 0.875,
			StarvationThreshold: 500, ScanDepth: 2,
		}
		cfg.SchedOpts.QoS = sched.QoSConfig{
			MaxSlowdownSLO: 1.5, QuantumCycles: 5_000, Alpha: 0.875,
			StarvationThreshold: 1_000, ScanDepth: 4, BaselineLatency: 70,
		}
		label := p.Acronym + "/" + cfg.Scheduler.String()
		t.Run(label, func(t *testing.T) {
			stepAndAudit(t, cfg, 48_000, label)
		})
	}
}

package core

import (
	"reflect"
	"sync"
	"testing"

	"cloudmc/internal/cache"
	"cloudmc/internal/sched"
	"cloudmc/internal/tenant"
	"cloudmc/internal/workload"
)

// clearWarm empties the process-wide warm snapshot, so the next fresh
// warmup takes the cold path.
func clearWarm() {
	lastWarm.mu.Lock()
	lastWarm.snap = nil
	lastWarm.mu.Unlock()
}

// warmHit reports whether a fresh FunctionalWarmup(instr) of s would
// copy the snapshot in.
func warmHit(s *System, instr uint64) bool {
	if instr == 0 {
		instr = s.autoWarmupInstr()
	}
	k := s.warmKey(instr)
	lastWarm.mu.Lock()
	defer lastWarm.mu.Unlock()
	return lastWarm.snap != nil && reflect.DeepEqual(lastWarm.snap.key, k)
}

// warmState is everything FunctionalWarmup writes.
type warmState struct {
	l1     []*cache.Cache
	l2     *cache.Cache
	gens   []*workload.Generator
	warmed bool
}

func stateOf(s *System) warmState {
	return warmState{l1: s.l1, l2: s.l2, gens: s.gens, warmed: s.warmed}
}

// coldWarmup runs the warmup body on s directly, bypassing the
// snapshot: the behaviour every FunctionalWarmup had before reuse.
func coldWarmup(s *System, instr uint64) {
	if instr == 0 {
		instr = s.autoWarmupInstr()
	}
	s.primeCaches()
	s.streamWarmup(instr)
	s.warmed = true
}

func mustSystem(t testing.TB, cfg Config) *System {
	t.Helper()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// reuseConfig is a short timed window around the full-size warmup.
func reuseConfig(cfg Config) Config {
	cfg.WarmupCycles = 2_000
	cfg.MeasureCycles = 20_000
	cfg.SchedOpts.ATLAS = sched.ATLASConfig{
		QuantumCycles:       2_000,
		Alpha:               0.875,
		StarvationThreshold: 250,
		ScanDepth:           2,
	}
	return cfg
}

// TestWarmReuseMetricsEqualCold runs each configuration cold, then
// again with the first run's warm state reused, and requires identical
// Metrics: all twelve Table-1 profiles solo, and the DS+HOG colocation
// under every isolation mode that changes the LLC or the address map.
func TestWarmReuseMetricsEqualCold(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulations are slow")
	}
	var cfgs []Config
	for _, p := range workload.All() {
		cfgs = append(cfgs, reuseConfig(DefaultConfig(p)))
	}
	for _, iso := range []Isolation{{}, {WayPartition: true}, {BankPartition: true, WayPartition: true}} {
		cfg := reuseConfig(DefaultMixConfig(tenant.Pair(workload.DataServing(), workload.MemoryHog(), 8)))
		cfg.Scheduler = sched.ATLAS
		cfg.Isolation = iso
		cfgs = append(cfgs, cfg)
	}
	for _, cfg := range cfgs {
		name := cfg.Profile.Acronym
		if cfg.multiTenant() {
			name = "DS:8+HOG:8/" + cfg.Isolation.String()
		}
		t.Run(name, func(t *testing.T) {
			clearWarm()
			cold := mustSystem(t, cfg)
			if warmHit(cold, cfg.WarmupInstrPerCore) {
				t.Fatal("cleared snapshot still hit")
			}
			want := cold.Run()
			reused := mustSystem(t, cfg)
			if !warmHit(reused, cfg.WarmupInstrPerCore) {
				t.Fatal("identical config missed the snapshot")
			}
			if got := reused.Run(); !reflect.DeepEqual(got, want) {
				t.Fatalf("reused warm state changed Metrics:\n got  %+v\n want %+v", got, want)
			}
		})
	}
}

// TestWarmReuseKeySeesEveryInput warms a base configuration and then,
// back to back, a configuration that differs in one warmup input. The
// second warmup must miss and reproduce its own cold state exactly.
func TestWarmReuseKeySeesEveryInput(t *testing.T) {
	mix := tenant.Pair(workload.DataServing(), workload.MemoryHog(), 8)
	base := DefaultMixConfig(mix)
	base.WarmupInstrPerCore = 2_000
	cases := map[string]func(*Config){
		"Seed": func(c *Config) { c.Seed++ },
		"L1":   func(c *Config) { c.L1.Ways = 4 },
		"L2":   func(c *Config) { c.L2.SizeBytes = 2 << 20 },
		"WayPartition": func(c *Config) {
			c.Isolation.WayPartition = true
		},
		"Cores": func(c *Config) {
			c.Tenants = []tenant.Spec{c.Tenants[0], {Profile: c.Tenants[1].Profile, Cores: 4}}
		},
		"WarmupInstrPerCore": func(c *Config) { c.WarmupInstrPerCore = 2_001 },
		"Profile": func(c *Config) {
			p := c.Tenants[0].Profile
			p.StoreFraction += 0.01
			c.Tenants = []tenant.Spec{{Profile: p, Cores: 8}, c.Tenants[1]}
		},
	}
	for _, name := range []string{"Seed", "L1", "L2", "WayPartition", "Cores", "WarmupInstrPerCore", "Profile"} {
		t.Run(name, func(t *testing.T) {
			changed := base
			cases[name](&changed)

			clearWarm()
			ref := mustSystem(t, changed)
			ref.FunctionalWarmup(changed.WarmupInstrPerCore)

			clearWarm()
			mustSystem(t, base).FunctionalWarmup(base.WarmupInstrPerCore)
			sys := mustSystem(t, changed)
			if warmHit(sys, changed.WarmupInstrPerCore) {
				t.Fatalf("changing %s still hit the snapshot", name)
			}
			sys.FunctionalWarmup(changed.WarmupInstrPerCore)
			if !reflect.DeepEqual(stateOf(sys), stateOf(ref)) {
				t.Fatalf("changing %s: warm state differs from its cold warmup", name)
			}
		})
	}
}

// TestWarmReuseOnlyFreshSystems pins that a repeated warmup, one after
// Advance, and one after a direct port access all run the cold warmup
// body on the system as it stands, and leave the snapshot alone.
func TestWarmReuseOnlyFreshSystems(t *testing.T) {
	cfg := DefaultConfig(workload.DataServing())
	const instr = 2_000
	clearWarm()
	once := mustSystem(t, cfg)
	once.FunctionalWarmup(instr) // miss: saves the snapshot

	prep := map[string]func(*System){
		"second": func(s *System) { s.FunctionalWarmup(instr) },
		"advance": func(s *System) {
			s.Advance(500)
		},
		"port": func(s *System) { s.Load(0, 3, 0x4000_0000) },
	}
	for _, name := range []string{"second", "advance", "port"} {
		t.Run(name, func(t *testing.T) {
			ref := mustSystem(t, cfg)
			prep[name](ref)
			coldWarmup(ref, instr)

			sys := mustSystem(t, cfg)
			prep[name](sys)
			sys.FunctionalWarmup(instr)
			if !reflect.DeepEqual(stateOf(sys), stateOf(ref)) {
				t.Fatalf("%s warmup diverged from the cold body", name)
			}

			fresh := mustSystem(t, cfg)
			if !warmHit(fresh, instr) {
				t.Fatalf("%s warmup replaced the snapshot", name)
			}
			fresh.FunctionalWarmup(instr)
			if !reflect.DeepEqual(stateOf(fresh), stateOf(once)) {
				t.Fatalf("%s warmup altered the snapshot's state", name)
			}
		})
	}
}

// TestWarmReuseConcurrent has goroutines warm two alternating
// configurations at once, so the snapshot keeps changing hands, and
// checks every warm state against that configuration's cold one. Run
// it under -race -count=10 after touching warm.go.
func TestWarmReuseConcurrent(t *testing.T) {
	var cfgs [2]Config
	var want [2]warmState
	for i := range cfgs {
		cfg := DefaultConfig(workload.DataServing())
		cfg.L2 = cache.Config{SizeBytes: 256 << 10, Ways: 16, BlockBytes: 64}
		cfg.WarmupInstrPerCore = 1_000
		cfg.Seed = uint64(i + 1)
		cfgs[i] = cfg
		ref := mustSystem(t, cfg)
		coldWarmup(ref, cfg.WarmupInstrPerCore)
		want[i] = stateOf(ref)
	}
	clearWarm()
	const goroutines, rounds = 8, 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (g + r) % 2
				sys, err := NewSystem(cfgs[i])
				if err != nil {
					t.Error(err)
					return
				}
				sys.FunctionalWarmup(cfgs[i].WarmupInstrPerCore)
				if !reflect.DeepEqual(stateOf(sys), want[i]) {
					t.Errorf("goroutine %d round %d: config %d warm state differs from cold", g, r, i)
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkFunctionalWarmup times one 16-core warmup at the default
// geometry. cold clears the snapshot first, as a process's first (or
// only) run sees it; reused warms a configuration whose state the
// snapshot already holds.
func BenchmarkFunctionalWarmup(b *testing.B) {
	cfg := DefaultConfig(workload.DataServing())
	for _, reuse := range []bool{false, true} {
		name := "cold"
		if reuse {
			name = "reused"
		}
		b.Run(name, func(b *testing.B) {
			clearWarm()
			mustSystem(b, cfg).FunctionalWarmup(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if !reuse {
					clearWarm()
				}
				sys := mustSystem(b, cfg)
				b.StartTimer()
				sys.FunctionalWarmup(0)
			}
		})
	}
}

// Package core assembles the full simulated system of the study: the
// 16-core in-order pod of Lotfi-Kamran et al. with two cache levels, a
// crossbar, and one memory controller per DDR3 channel (paper Table
// 2). It is the package experiments drive: build a Config, run it,
// read the Metrics the paper's figures plot.
package core

import (
	"fmt"
	"strings"

	"cloudmc/internal/addrmap"
	"cloudmc/internal/cache"
	"cloudmc/internal/dram"
	"cloudmc/internal/memctrl"
	"cloudmc/internal/pagepolicy"
	"cloudmc/internal/sched"
	"cloudmc/internal/tenant"
	"cloudmc/internal/workload"
)

// Isolation selects the inter-tenant isolation mechanisms of a
// colocation run. The zero value (no isolation) shares every resource,
// which is bit-identical to the pre-isolation simulator; each
// mechanism closes one interference channel of the memory-DoS
// literature.
type Isolation struct {
	// BankPartition carves each channel's combined rank x bank index
	// space into disjoint per-tenant slices (proportional to core
	// share, rounded to powers of two) and rebases every tenant's
	// address decode into its own slice, so two tenants can never
	// collide on a bank or a row buffer.
	BankPartition bool
	// WayPartition splits the shared LLC's ways among tenants
	// (proportional to core share); lookups hit anywhere, but each
	// tenant's fills may only evict lines in its own ways, so no
	// tenant can flush another's working set.
	WayPartition bool
}

// Enabled reports whether any isolation mechanism is on.
func (i Isolation) Enabled() bool { return i.BankPartition || i.WayPartition }

// String renders the mcmix axis vocabulary: none, banks, ways,
// banks+ways.
func (i Isolation) String() string {
	switch {
	case i.BankPartition && i.WayPartition:
		return "banks+ways"
	case i.BankPartition:
		return "banks"
	case i.WayPartition:
		return "ways"
	default:
		return "none"
	}
}

// ParseIsolation converts an isolation axis name (as printed by
// String) back to an Isolation value, case-insensitively, listing the
// valid names on error.
func ParseIsolation(s string) (Isolation, error) {
	switch strings.ToLower(s) {
	case "none", "":
		return Isolation{}, nil
	case "banks":
		return Isolation{BankPartition: true}, nil
	case "ways":
		return Isolation{WayPartition: true}, nil
	case "banks+ways", "ways+banks":
		return Isolation{BankPartition: true, WayPartition: true}, nil
	}
	return Isolation{}, fmt.Errorf("core: unknown isolation mode %q (valid: none, banks, ways, banks+ways)", s)
}

// Isolations lists the isolation axis values a study sweeps, weakest
// first.
var Isolations = []Isolation{
	{},
	{BankPartition: true},
	{WayPartition: true},
	{BankPartition: true, WayPartition: true},
}

// Config describes one simulated system + workload combination.
type Config struct {
	// Profile is the workload to run (solo, single-tenant mode).
	Profile workload.Profile

	// Tenants, when non-empty, switches the system to multi-tenant
	// colocation mode: the machine's cores are partitioned among the
	// listed tenants in order, each driven by its own profile in its
	// own slice of physical memory, all contending for the shared L2
	// and memory controllers. Profile is ignored in this mode. Metrics
	// gain a per-tenant breakdown; ATLAS switches to per-tenant
	// service accounting.
	Tenants []tenant.Spec

	// Isolation enables inter-tenant isolation mechanisms (bank
	// partitioning in the address map, LLC way-partitioning) for
	// colocation runs. The zero value shares everything and is
	// bit-identical to the pre-isolation simulator.
	Isolation Isolation

	// Scheduler selects the memory scheduling algorithm.
	Scheduler sched.Kind
	// SchedOpts overrides algorithm parameters (zero sub-configs use
	// the paper's Table 3 values). Cores and Seed are filled from the
	// profile and Config automatically.
	SchedOpts sched.Opts
	// PagePolicy names the page-management policy (see
	// pagepolicy.ByName). The RL scheduler owns precharge decisions,
	// so it always runs with the static open policy regardless.
	PagePolicy string
	// Mapping is the address-interleaving scheme.
	Mapping addrmap.Scheme
	// Channels is the memory channel count (1, 2 or 4 in the study).
	Channels int

	// Geometry is the 1-channel DRAM organization; Channels is applied
	// with Geometry.WithChannels, holding capacity constant.
	Geometry dram.Geometry
	// BusTiming is the DRAM timing in bus cycles; it is converted to
	// core cycles with ClockNum/ClockDen (2GHz cores on an 800MHz bus:
	// 5/2).
	BusTiming          dram.Timing
	ClockNum, ClockDen int

	// L1 and L2 size the caches; L2HitLatency is the core stall for an
	// L1-miss/L2-hit round trip (crossbar + bank access + crossbar).
	L1           cache.Config
	L2           cache.Config
	L2HitLatency int
	// MemPathLatency is the fixed on-chip latency added to every LLC
	// miss on top of the controller queueing/service time (miss
	// handling plus crossbar traversal).
	MemPathLatency int

	// MC configures each per-channel controller.
	MC memctrl.Config
	// MSHRCap bounds outstanding LLC misses system-wide.
	MSHRCap int
	// StoreBufferCap is the per-core store buffer depth.
	StoreBufferCap int

	// WarmupInstrPerCore is the functional (untimed) cache-warming
	// phase: each core streams this many instructions through the
	// hierarchy before timed simulation, the equivalent of the paper's
	// one-billion-instruction SimFlex warmup (§3.2). Zero selects an
	// automatic value sized to fill the L2 with the profile's miss
	// stream.
	WarmupInstrPerCore uint64
	// WarmupCycles of timed simulation run before statistics reset
	// (settles queues and row buffers); MeasureCycles are then
	// simulated and reported.
	WarmupCycles  uint64
	MeasureCycles uint64

	// Seed makes runs reproducible; the same Config and Seed give
	// bit-identical Metrics.
	Seed uint64

	// FastForward selects the event kernel (kernel.go): every cycle is
	// stepped, but stalled cores and parked controllers are skipped.
	// Clear, it selects the naive per-cycle loop, the reference
	// oracle. The resulting Metrics are bit-identical either way (the
	// equivalence suites in fastforward_test.go and kernel_test.go
	// enforce this); the flag exists to run that comparison and to
	// debug the kernel itself. DefaultConfig enables it.
	FastForward bool
}

// DefaultConfig returns the paper's Table 2 baseline system for a
// workload: 16 in-order cores at 2GHz, 32KB 2-way L1s, a 4MB 16-way
// shared L2, FR-FCFS scheduling, the open-adaptive page policy, one
// DDR3-1600 channel and RoRaBaCoCh mapping.
func DefaultConfig(p workload.Profile) Config {
	return Config{
		Profile:        p,
		Scheduler:      sched.FRFCFS,
		PagePolicy:     "OpenAdaptive",
		Mapping:        addrmap.RoRaBaCoCh,
		Channels:       1,
		Geometry:       dram.DefaultGeometry(),
		BusTiming:      dram.DDR3_1600(),
		ClockNum:       5,
		ClockDen:       2,
		L1:             cache.Config{SizeBytes: 32 << 10, Ways: 2, BlockBytes: 64},
		L2:             cache.Config{SizeBytes: 4 << 20, Ways: 16, BlockBytes: 64},
		L2HitLatency:   18, // 4 crossbar + 10 bank + 4 crossbar
		MemPathLatency: 12,
		MC:             memctrl.DefaultConfig(),
		MSHRCap:        48,
		StoreBufferCap: 12,
		WarmupCycles:   100_000,
		MeasureCycles:  1_000_000,
		Seed:           1,
		FastForward:    true,
	}
}

// multiTenant reports whether the config describes a colocation run.
func (c Config) multiTenant() bool { return len(c.Tenants) > 0 }

// tenantSpecs returns the tenant list driving the system: the
// configured mix, or a single implicit tenant wrapping Profile.
func (c Config) tenantSpecs() []tenant.Spec {
	if c.multiTenant() {
		return c.Tenants
	}
	return []tenant.Spec{{Profile: c.Profile}}
}

// DefaultMixConfig returns the Table 2 baseline system (DefaultConfig)
// hosting a colocation mix instead of a solo workload.
func DefaultMixConfig(m tenant.Mix) Config {
	if len(m.Tenants) == 0 {
		panic("core: DefaultMixConfig with an empty mix")
	}
	cfg := DefaultConfig(m.Tenants[0].Profile)
	cfg.Profile = workload.Profile{}
	cfg.Tenants = m.Tenants
	return cfg
}

// Validate reports the first configuration error found.
func (c Config) Validate() error {
	if c.multiTenant() {
		for _, sp := range c.Tenants {
			if err := sp.Validate(); err != nil {
				return err
			}
		}
	} else if err := c.Profile.Validate(); err != nil {
		return err
	}
	if _, ok := pagepolicy.ByName(c.PagePolicy); !ok {
		return fmt.Errorf("core: unknown page policy %q", c.PagePolicy)
	}
	if c.Channels <= 0 || c.Channels&(c.Channels-1) != 0 {
		return fmt.Errorf("core: Channels %d must be a positive power of two", c.Channels)
	}
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	if err := c.BusTiming.Validate(); err != nil {
		return err
	}
	if c.ClockNum <= 0 || c.ClockDen <= 0 {
		return fmt.Errorf("core: invalid clock ratio %d/%d", c.ClockNum, c.ClockDen)
	}
	if err := c.L1.Validate(); err != nil {
		return err
	}
	if err := c.L2.Validate(); err != nil {
		return err
	}
	if c.L2HitLatency < 1 || c.MemPathLatency < 0 {
		return fmt.Errorf("core: invalid hierarchy latencies")
	}
	if err := c.MC.Validate(); err != nil {
		return err
	}
	if err := c.SchedOpts.Validate(); err != nil {
		return err
	}
	if c.MSHRCap <= 0 || c.StoreBufferCap <= 0 {
		return fmt.Errorf("core: MSHRCap and StoreBufferCap must be positive")
	}
	if n := len(c.tenantSpecs()); c.Isolation.BankPartition && n > c.channelGeometry().BanksPerChannel() {
		return fmt.Errorf("core: bank partitioning cannot carve %d banks among %d tenants",
			c.channelGeometry().BanksPerChannel(), n)
	}
	if n := len(c.tenantSpecs()); c.Isolation.WayPartition && n > c.L2.Ways {
		return fmt.Errorf("core: way partitioning cannot carve %d LLC ways among %d tenants", c.L2.Ways, n)
	}
	if c.MeasureCycles == 0 {
		return fmt.Errorf("core: MeasureCycles must be positive")
	}
	return nil
}

// coreTiming returns the DRAM timing converted to core clock cycles.
func (c Config) coreTiming() dram.Timing {
	return c.BusTiming.ScaleFrom(c.ClockNum, c.ClockDen)
}

// channelGeometry returns the per-run geometry with Channels applied.
func (c Config) channelGeometry() dram.Geometry {
	return c.Geometry.WithChannels(c.Channels)
}

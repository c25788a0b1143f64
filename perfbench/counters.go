package main

import (
	"fmt"
	"math"

	"cloudmc/internal/core"
)

// counters are the exact behaviour counters of a set of cells' measure
// windows, summed over cells (and over controllers within a cell).
// Every field except parks is a simulated statistic; parks is engine
// telemetry that a loop-mode change may legitimately move.
type counters struct {
	cycles     uint64 // measure cycles
	coreCycles uint64 // measure cycles x cores
	ctlCycles  uint64 // measure cycles x channels
	ctls       uint64 // cells x channels
	retired    uint64
	stall      uint64
	misses     uint64
	mshrSum    uint64
	mshrN      uint64
	reads      uint64
	writes     uint64
	enqFail    uint64
	parks      uint64
	readQ      float64 // time-weighted queue averages, summed per channel
	writeQ     float64
	latSum     float64
	latN       uint64
	hits       uint64
	accesses   uint64
	act1       uint64
	actClosed  uint64
	acts       uint64
	busBusy    uint64
	cmds       uint64 // DRAM commands in measure windows (traced passes only)
}

// cellCounters reads one finished cell's counters from its recorder
// samples, controllers and channels.
func cellCounters(p *cellProbe, cfg core.Config) counters {
	cores := uint64(totalCores(cfg))
	c := counters{
		cycles:     p.measured,
		coreCycles: p.measured * cores,
		retired:    p.retired,
		stall:      p.stall,
		misses:     p.misses,
		mshrSum:    p.mshrSum,
		mshrN:      p.mshrN,
	}
	for _, ctl := range p.sys.Controllers() {
		st := &ctl.Stats
		dev := &ctl.Channel().Stats
		c.ctlCycles += p.measured
		c.ctls++
		c.reads += st.ReadsServed
		c.writes += st.WritesServed
		c.enqFail += st.EnqueueFailures
		c.parks += st.Parks
		c.readQ += st.ReadQ.Average(p.endCycle)
		c.writeQ += st.WriteQ.Average(p.endCycle)
		c.latSum += st.ReadLatency.Mean() * float64(st.ReadLatency.Count())
		c.latN += st.ReadLatency.Count()
		c.hits += st.RowHits
		c.accesses += st.RowHits + st.RowMisses + st.RowConflicts
		c.acts += dev.Activates
		c.busBusy += dev.DataBusBusy
		_, closed := dev.SingleAccessFraction()
		c.act1 += dev.ActivationReuse[1]
		c.actClosed += closed
	}
	return c
}

func (c *counters) add(o counters) {
	c.cycles += o.cycles
	c.coreCycles += o.coreCycles
	c.ctlCycles += o.ctlCycles
	c.ctls += o.ctls
	c.retired += o.retired
	c.stall += o.stall
	c.misses += o.misses
	c.mshrSum += o.mshrSum
	c.mshrN += o.mshrN
	c.reads += o.reads
	c.writes += o.writes
	c.enqFail += o.enqFail
	c.parks += o.parks
	c.readQ += o.readQ
	c.writeQ += o.writeQ
	c.latSum += o.latSum
	c.latN += o.latN
	c.hits += o.hits
	c.accesses += o.accesses
	c.act1 += o.act1
	c.actClosed += o.actClosed
	c.acts += o.acts
	c.busBusy += o.busBusy
	c.cmds += o.cmds
}

// simulated returns the counters with engine telemetry cleared, the
// part a speed-only change must leave bit-identical.
func (c counters) simulated() counters {
	c.parks = 0
	return c
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func perK(n, cycles uint64) float64 { return ratio(1000*float64(n), float64(cycles)) }

func (c counters) enqueueFailRatio() float64 {
	return ratio(float64(c.enqFail), float64(c.enqFail+c.reads+c.writes))
}

// report sets the per-layer behaviour-counter metrics; queue depths
// are means over every (cell, channel) pair.
func (c counters) report(r *result) {
	r.set("cpu.stall_frac", ratio(float64(c.stall), float64(c.coreCycles)), "fraction")
	r.set("core.demand_misses_per_kcycle", perK(c.misses, c.cycles), "1/kcycle")
	r.set("core.mshr_occupancy_avg", ratio(float64(c.mshrSum), float64(c.mshrN)), "entries")
	r.set("memctrl.reads_per_kcycle", perK(c.reads, c.cycles), "1/kcycle")
	r.set("memctrl.writes_per_kcycle", perK(c.writes, c.cycles), "1/kcycle")
	r.set("memctrl.enqueue_fail_ratio", c.enqueueFailRatio(), "fraction")
	r.set("memctrl.parks_per_kcycle", perK(c.parks, c.cycles), "1/kcycle")
	r.set("memctrl.read_q_avg", ratio(c.readQ, float64(c.ctls)), "entries")
	r.set("memctrl.write_q_avg", ratio(c.writeQ, float64(c.ctls)), "entries")
	r.set("memctrl.read_latency_cycles", ratio(c.latSum, float64(c.latN)), "cycles")
	r.set("dram.row_hit_ratio", ratio(float64(c.hits), float64(c.accesses)), "fraction")
	r.set("dram.single_access_frac", ratio(float64(c.act1), float64(c.actClosed)), "fraction")
	r.set("dram.acts_per_kcycle", perK(c.acts, c.cycles), "1/kcycle")
	r.set("dram.cmds_per_kcycle", perK(c.cmds, c.cycles), "1/kcycle")
	r.set("dram.bus_util", ratio(float64(c.busBusy), float64(c.ctlCycles)), "fraction")
}

// check verifies the counters' invariants: every rate is finite and
// every fraction lies in [0, 1].
func (c counters) check() error {
	fracs := []struct {
		name string
		v    float64
	}{
		{"stall fraction", ratio(float64(c.stall), float64(c.coreCycles))},
		{"enqueue failure ratio", c.enqueueFailRatio()},
		{"row-hit ratio", ratio(float64(c.hits), float64(c.accesses))},
		{"single-access fraction", ratio(float64(c.act1), float64(c.actClosed))},
		{"bus utilisation", ratio(float64(c.busBusy), float64(c.ctlCycles))},
	}
	for _, f := range fracs {
		if math.IsNaN(f.v) || f.v < 0 || f.v > 1 {
			return fmt.Errorf("%s %v outside [0, 1]", f.name, f.v)
		}
	}
	for _, v := range []float64{c.readQ, c.writeQ, c.latSum} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("queue or latency sum %v is not a finite non-negative number", v)
		}
	}
	if c.retired == 0 || c.cycles == 0 {
		return fmt.Errorf("no instructions retired in %d measured cycles", c.cycles)
	}
	return nil
}

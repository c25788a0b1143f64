package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"hash"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"cloudmc/internal/core"
	"cloudmc/internal/dram"
	"cloudmc/internal/experiment"
	"cloudmc/internal/obs"
)

// passRun collects what one pass over a workload's cells measured.
// Cells run strictly one after another: start, attach and finish
// bracket each simulated cell.
type passRun struct {
	seed  uint64
	chunk uint64
	// traced attaches a counting CommandTrace to every cell; capture
	// additionally keeps the first cell's commands and configuration
	// for the layer replays.
	traced, capture bool

	// chunks receives one host-ns-per-simulated-cycle sample per
	// measure-window Advance chunk; it is shared across passes and
	// pre-sized so appending does not allocate inside timed windows.
	chunks *[]float64

	ru        syscall.Rusage
	cellStart time.Duration // CPU time
	cur       *cellProbe

	cells          int
	newSys, warm   time.Duration // CPU time
	allocs         uint64        // heap allocations inside measure windows
	measureCycles  uint64
	simCycles      uint64 // warmup + measure cycles of every cell
	counters       counters
	digest         hash.Hash
	study          *experiment.Study
	capturedConfig *core.Config
	captured       []tracedCmd
}

func newPassRun(seed, chunk uint64, chunks *[]float64) *passRun {
	return &passRun{seed: seed, chunk: chunk, chunks: chunks, digest: sha256.New()}
}

// Profile labels split a traced pass's CPU samples into set-up
// (NewSystem and FunctionalWarmup) and the simulation that Run does.
var (
	setupLabels = pprof.WithLabels(context.Background(), pprof.Labels(phaseLabel, phaseSetup))
	runLabels   = pprof.WithLabels(context.Background(), pprof.Labels(phaseLabel, "run"))
)

const (
	phaseLabel = "phase"
	phaseSetup = "setup"
)

// start marks the beginning of a cell, just before core.NewSystem.
func (pr *passRun) start() {
	if pr.traced {
		pprof.SetGoroutineLabels(setupLabels)
	}
	pr.cellStart = cpuTime(&pr.ru)
}

// attach instruments a freshly built System: an interval recorder
// whose sink times every chunk, an optional command counter, and the
// timed functional warmup (Run then skips it).
func (pr *passRun) attach(label string, sys *core.System) {
	built := cpuTime(&pr.ru)
	pr.newSys += built - pr.cellStart
	cfg := sys.Config()
	p := &cellProbe{
		pr: pr, label: label, sys: sys,
		warmCycles: cfg.WarmupCycles, endCycle: cfg.WarmupCycles + cfg.MeasureCycles,
	}
	if cfg.WarmupCycles%pr.chunk != 0 || cfg.MeasureCycles%pr.chunk != 0 {
		panic(fmt.Sprintf("perfbench: %s windows %d/%d are not multiples of the %d-cycle chunk",
			label, cfg.WarmupCycles, cfg.MeasureCycles, pr.chunk))
	}
	if pr.traced {
		p.trace = &cmdCounter{from: cfg.WarmupCycles}
		if pr.capture && pr.capturedConfig == nil {
			pr.capturedConfig = &cfg
			p.trace.keep = true
		}
		sys.AttachTrace(p.trace)
	}
	sys.AttachRecorder(obs.NewRecorder(label, pr.chunk, p))
	pr.cur = p
	sys.FunctionalWarmup(cfg.WarmupInstrPerCore)
	p.last = cpuTime(&p.ru)
	pr.warm += p.last - built
	if pr.traced {
		pprof.SetGoroutineLabels(runLabels)
	}
}

// finish closes the current cell after Run returned m (nil when the
// caller has no Metrics, as for experiment.Study cells), folding its
// counters into the pass and checking its outputs.
func (pr *passRun) finish(m *core.Metrics) error {
	p := pr.cur
	if p == nil {
		return nil // a Study cache hit: nothing was simulated
	}
	pr.cur = nil
	pr.cells++
	cfg := p.sys.Config()
	pr.measureCycles += cfg.MeasureCycles
	pr.simCycles += p.endCycle
	if !p.closed {
		return fmt.Errorf("%s: measure window never reached cycle %d", p.label, p.endCycle)
	}
	pr.allocs += p.allocs
	c := cellCounters(p, cfg)
	pr.counters.add(c)
	fmt.Fprintf(pr.digest, "%s %+v\n", p.label, c.simulated())
	for _, ctl := range p.sys.Controllers() {
		st := ctl.Stats
		fmt.Fprintf(pr.digest, "ctl %d %d %d %d %d %d %d %d %d %v %d %+v\n",
			st.ReadsServed, st.WritesServed, st.RowHits, st.RowMisses, st.RowConflicts,
			st.ForwardedReads, st.EnqueueFailures, st.PolicyCloses, st.ConflictCloses,
			st.ReadLatency.Mean(), st.ReadLatency.Count(), ctl.Channel().Stats)
	}
	if p.trace != nil {
		pr.counters.cmds += p.trace.n
		if p.trace.keep {
			pr.captured = p.trace.cmds
		}
	}
	if m != nil {
		fmt.Fprintf(pr.digest, "metrics %+v\n", *m)
		if err := checkMetrics(m); err != nil {
			return fmt.Errorf("%s: %w", p.label, err)
		}
	}
	return c.check()
}

// sum returns the digest of every simulated statistic the pass saw.
func (pr *passRun) sum() string { return fmt.Sprintf("%x", pr.digest.Sum(nil)[:12]) }

// cellProbe is the obs.Sink of one cell's recorder. The recorder
// chunks Advance at every interval boundary, so the CPU time between
// consecutive Emit calls is the cost of one chunk of simulated cycles.
// Its Rusage buffer lives in the probe so reading the clock inside a
// measure window allocates nothing.
type cellProbe struct {
	pr         *passRun
	label      string
	sys        *core.System
	warmCycles uint64
	endCycle   uint64
	trace      *cmdCounter

	ru       syscall.Rusage
	last     time.Duration // CPU time at the previous boundary
	mallocs  uint64
	allocs   uint64
	closed   bool
	ms       runtime.MemStats
	retired  uint64
	stall    uint64
	misses   uint64
	mshrSum  uint64
	mshrN    uint64
	measured uint64
}

// Emit implements obs.Sink.
func (p *cellProbe) Emit(s *obs.Sample) error {
	now := cpuTime(&p.ru)
	if s.Phase == "measure" {
		*p.pr.chunks = append(*p.pr.chunks, float64((now-p.last).Nanoseconds())/float64(s.Cycles))
		p.retired += s.Retired
		p.stall += s.StallLoad + s.StallStore
		p.misses += s.DemandMisses
		p.mshrSum += uint64(s.MSHR)
		p.mshrN++
		p.measured += s.Cycles
	}
	switch {
	case s.Phase == "warmup" && s.Cycle == p.warmCycles:
		runtime.ReadMemStats(&p.ms)
		p.mallocs = p.ms.Mallocs
	case s.Phase == "measure" && s.Cycle == p.endCycle:
		runtime.ReadMemStats(&p.ms)
		p.allocs = p.ms.Mallocs - p.mallocs
		p.closed = true
	}
	p.last = cpuTime(&p.ru)
	return nil
}

// Flush implements obs.Sink.
func (p *cellProbe) Flush() error { return nil }

// tracedCmd is one DRAM command seen by a CommandTrace.
type tracedCmd struct {
	at     uint64
	cmd    dram.Command
	tenant int
}

// cmdCounter is a memctrl.CommandTrace that counts the commands issued
// in the measure window and, when keep is set, records every command.
type cmdCounter struct {
	from uint64
	n    uint64
	keep bool
	cmds []tracedCmd
}

// maxCaptured bounds the commands kept for the layer replays.
const maxCaptured = 400_000

// Command implements memctrl.CommandTrace.
func (c *cmdCounter) Command(now uint64, cmd dram.Command, tenant int) {
	if now >= c.from {
		c.n++
	}
	if c.keep && len(c.cmds) < maxCaptured {
		c.cmds = append(c.cmds, tracedCmd{at: now, cmd: cmd, tenant: tenant})
	}
}

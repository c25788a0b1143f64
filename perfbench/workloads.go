package main

import (
	"fmt"

	"cloudmc/internal/core"
	"cloudmc/internal/experiment"
	"cloudmc/internal/sched"
	"cloudmc/internal/tenant"
	"cloudmc/internal/workload"
)

// workloadDef is one benchmark workload: a closed batch of simulation
// cells run one after another on one thread.
type workloadDef struct {
	name string
	// chunk is the Advance chunk, in simulated cycles, that ns/cycle
	// samples are taken over; every cell's warmup and measure windows
	// are multiples of it. Chunks last 20-80 ms of host time, long
	// enough that a brief stall of the host does not decide the p90.
	chunk uint64
	// pass runs the whole batch once, reporting every cell to pr.
	pass func(pr *passRun) error
	// checkCells lists short-window configs whose event-kernel Metrics
	// are compared against the naive per-cycle loop.
	checkCells func(seed uint64) []core.Config
}

var workloads = []workloadDef{
	{
		// The Figure 1-7 scheduler grid exactly as mcfigures runs it at
		// quick scale: 12 Table-1 profiles x 5 schedulers through
		// experiment.Study, one cell at a time.
		name:  "paper-grid",
		chunk: 30_000,
		pass:  paperGridPass,
		checkCells: func(seed uint64) []core.Config {
			var out []core.Config
			all := workload.All()
			for i, k := range sched.Kinds {
				cfg := core.DefaultConfig(all[(2*i+1)%len(all)])
				cfg.Scheduler = k
				out = append(out, shortWindow(cfg, seed, 5_000, 20_000))
			}
			return out
		},
	},
	{
		// DS-256c on 8 channels with deep queues: the controller-bound
		// regime (memctrl dominates host time, fast-forward never
		// jumps, and 256 cores make functional warmup the largest
		// set-up).
		name:  "deep-queue",
		chunk: 5_000,
		pass: func(pr *passRun) error {
			return directPass(pr, "DS-256c-deep/ch8", deepQueueConfig(pr.seed))
		},
		checkCells: func(seed uint64) []core.Config {
			return []core.Config{shortWindow(deepQueueConfig(seed), seed, 2_000, 6_000)}
		},
	},
	{
		// DS:8+HOG:8 under ATLAS with bank and LLC-way isolation on one
		// channel: the scheduler-bound colocation regime (ATLAS ranking,
		// partitioned decode, way-partitioned installs, write drain
		// under HOG's 50% stores).
		name:  "colo-atlas",
		chunk: 30_000,
		pass: func(pr *passRun) error {
			return directPass(pr, "DS:8+HOG:8/ATLAS/banks+ways/ch1", coloAtlasConfig(pr.seed))
		},
		checkCells: func(seed uint64) []core.Config {
			return []core.Config{shortWindow(coloAtlasConfig(seed), seed, 5_000, 20_000)}
		},
	},
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// shortWindow returns cfg resized to a short warmup and measure window.
func shortWindow(cfg core.Config, seed, warm, measure uint64) core.Config {
	cfg.Seed = seed
	cfg.WarmupCycles = warm
	cfg.MeasureCycles = measure
	return cfg
}

// deepQueueConfig is the DS-256c-deep/ch8 throughput configuration:
// 256 data-serving cores on 8 channels, MSHRCap 1024 and 256-entry
// read and write queues under FR-FCFS.
func deepQueueConfig(seed uint64) core.Config {
	cfg := core.DefaultConfig(workload.DataServing256())
	cfg.Channels = 8
	cfg.MSHRCap = 1024
	cfg.MC.ReadQueueCap = 256
	cfg.MC.WriteQueueCap = 256
	return shortWindow(cfg, seed, 10_000, 40_000)
}

// coloAtlasConfig is the DS:8+HOG:8 colocation cell under ATLAS with
// banks+ways isolation on one channel, at the study's quick window.
// ATLAS's quantum is scaled to the window the way experiment.Study
// scales it, so about ten quanta complete per measurement.
func coloAtlasConfig(seed uint64) core.Config {
	cfg := core.DefaultMixConfig(tenant.Pair(workload.DataServing(), workload.MemoryHog(), 8))
	cfg.Scheduler = sched.ATLAS
	cfg.Isolation = core.Isolation{BankPartition: true, WayPartition: true}
	cfg = shortWindow(cfg, seed, 30_000, 150_000)
	quantum := cfg.MeasureCycles / 10
	cfg.SchedOpts.ATLAS = sched.ATLASConfig{
		QuantumCycles:       quantum,
		Alpha:               0.875,
		StarvationThreshold: quantum / 8,
		ScanDepth:           2,
	}
	return cfg
}

// directPass runs one cell built straight from core.NewSystem.
func directPass(pr *passRun, label string, cfg core.Config) error {
	pr.start()
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", label, err)
	}
	pr.attach(label, sys)
	m := sys.Run()
	return pr.finish(&m)
}

// paperGridPass regenerates Figures 1-8 through experiment.Study at
// quick scale with Parallelism 1; the Study's Progress and Instrument
// hooks bracket every simulated cell.
func paperGridPass(pr *passRun) error {
	cfg := experiment.Quick()
	cfg.Seed = pr.seed
	cfg.Parallelism = 1
	var cellErr error
	cfg.Progress = func(ev experiment.CellEvent) {
		if ev.Start {
			pr.start()
		} else if err := pr.finish(nil); err != nil && cellErr == nil {
			cellErr = err
		}
	}
	cfg.Instrument = pr.attach
	st := experiment.NewStudy(cfg)
	tables := []*experiment.Table{
		st.Figure01(), st.Figure02(), st.Figure03(), st.Figure04(),
		st.Figure05(), st.Figure06(), st.Figure07(), st.Figure08(),
	}
	pr.study = st
	for _, t := range tables {
		fmt.Fprintf(pr.digest, "%s %v %v %v\n", t.ID, t.Rows, t.Cols, t.Values)
	}
	if cellErr != nil {
		return cellErr
	}
	return checkTables(tables)
}

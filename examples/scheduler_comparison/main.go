// Scheduler comparison: run one workload across all five memory
// scheduling algorithms the paper studies (§4.1) and print the
// normalized comparison — a single-workload slice of Figures 1-3.
//
//	go run ./examples/scheduler_comparison [acronym]
//
// The optional argument is a Table 1 acronym (default MR, whose
// mapper/reducer imbalance is what exposes ATLAS's quantum unfairness).
package main

import (
	"fmt"
	"log"
	"os"

	"cloudmc/internal/core"
	"cloudmc/internal/sched"
	"cloudmc/internal/workload"
)

func main() {
	acr := "MR"
	if len(os.Args) > 1 {
		acr = os.Args[1]
	}
	prof, err := workload.ByAcronym(acr)
	if err != nil {
		log.Fatal(err)
	}

	var base core.Metrics
	fmt.Printf("%s under the five schedulers (normalized to FR-FCFS):\n\n", prof.Name)
	fmt.Printf("%-12s %8s %8s %8s %10s\n", "scheduler", "IPC", "latency", "row-hit%", "fairness")
	for _, kind := range []sched.Kind{sched.FRFCFS, sched.FCFSBanks, sched.PARBS, sched.ATLAS, sched.RL} {
		cfg := core.DefaultConfig(prof)
		cfg.Scheduler = kind
		cfg.MeasureCycles = 400_000
		// Scale ATLAS's 10M-cycle quantum to the compressed window
		// (the same scaling experiment.Study applies).
		cfg.SchedOpts.ATLAS = sched.ATLASConfig{
			QuantumCycles: cfg.MeasureCycles / 10, Alpha: 0.875,
			StarvationThreshold: cfg.MeasureCycles / 80, ScanDepth: 1,
		}
		sys, err := core.NewSystem(cfg)
		if err != nil {
			log.Fatal(err)
		}
		m := sys.Run()
		if kind == sched.FRFCFS {
			base = m
		}
		fmt.Printf("%-12s %8.3f %8.3f %8.1f %10.2f\n",
			kind,
			m.UserIPC/base.UserIPC,
			m.AvgReadLatency/base.AvgReadLatency,
			100*m.RowHitRate,
			m.IPCDisparity())
	}
	fmt.Println("\nfairness = min/max per-core IPC; low values mean some cores starve.")
}

package main

import (
	"fmt"
	"math"
	"reflect"

	"cloudmc/internal/core"
	"cloudmc/internal/experiment"
)

// checkMetrics verifies a cell's Metrics invariants: every value is
// finite and non-negative, every rate lies in [0, 1], and the cell
// retired instructions.
func checkMetrics(m *core.Metrics) error {
	if m.Retired == 0 || m.Cycles == 0 {
		return fmt.Errorf("no instructions retired in %d cycles", m.Cycles)
	}
	vals := map[string]float64{
		"UserIPC": m.UserIPC, "AvgReadLatency": m.AvgReadLatency, "MPKI": m.MPKI,
		"AvgReadQ": m.AvgReadQ, "AvgWriteQ": m.AvgWriteQ,
	}
	rates := map[string]float64{
		"RowHitRate": m.RowHitRate, "BandwidthUtil": m.BandwidthUtil, "SingleAccessFrac": m.SingleAccessFrac,
	}
	for i, v := range m.PerCoreIPC {
		vals[fmt.Sprintf("PerCoreIPC[%d]", i)] = v
	}
	for _, t := range m.Tenants {
		vals[t.Name+".IPC"] = t.IPC
		vals[t.Name+".MPKI"] = t.MPKI
		vals[t.Name+".AvgReadLatency"] = t.AvgReadLatency
		rates[t.Name+".RowHitRate"] = t.RowHitRate
	}
	for name, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("%s = %v is not a finite non-negative number", name, v)
		}
	}
	for name, v := range rates {
		if math.IsNaN(v) || v < 0 || v > 1 {
			return fmt.Errorf("%s = %v outside [0, 1]", name, v)
		}
	}
	return nil
}

// percentTables are the figures whose values are percentages.
var percentTables = map[string]bool{"Figure 2": true, "Figure 7": true, "Figure 8": true}

// checkTables verifies the Figure 1-8 tables of a paper-grid pass:
// every cell is finite and positive, and percentages lie in [0, 100].
func checkTables(tables []*experiment.Table) error {
	for _, t := range tables {
		for i, row := range t.Values {
			for j, v := range row {
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || (percentTables[t.ID] && v > 100) {
					return fmt.Errorf("%s %s/%s = %v out of range", t.ID, t.Rows[i], t.Cols[j], v)
				}
			}
		}
	}
	return nil
}

// checkKernel runs cfg once on the default event kernel and once on the
// naive per-cycle loop and requires bit-identical Metrics.
func checkKernel(cfg core.Config) error {
	run := func(fastForward bool) (core.Metrics, error) {
		c := cfg
		c.FastForward = fastForward
		sys, err := core.NewSystem(c)
		if err != nil {
			return core.Metrics{}, err
		}
		return sys.Run(), nil
	}
	kernel, err := run(true)
	if err != nil {
		return err
	}
	naive, err := run(false)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(kernel, naive) {
		return fmt.Errorf("kernel Metrics %+v differ from the naive loop's %+v", kernel, naive)
	}
	return checkMetrics(&kernel)
}

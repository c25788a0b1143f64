package main

import (
	"fmt"
	"math"

	"cloudmc/internal/experiment"
	"cloudmc/internal/workload"
)

// fidelityRefSeed is the seed of the quick-scale scheduler grid the
// fid_* metrics are computed from by default: experiment.Quick()'s
// seed, so the values match what `mcfigures -scale quick` prints.
var fidelityRefSeed = experiment.Quick().Seed

// Paper reference values (Mahmoud et al., IISWC 2016).
var (
	// paperRowHitPct is the FR-FCFS row-buffer hit rate averaged over
	// SCO, TRS and DSP workloads (Figure 2).
	paperRowHitPct = [3]float64{37, 33, 27.5}
	// paperSingleAccessPct is the band of single-access activations
	// the paper reports for every workload (Figure 8).
	paperSingleAccessPct = [2]float64{77, 90}
)

// paperATLASSCOLatency is ATLAS's average memory latency on scale-out
// workloads, normalised to FR-FCFS (Figure 3).
const paperATLASSCOLatency = 2.94

// fidelity is the model's simulated error against the paper.
type fidelity struct {
	rowHitErrPP       float64
	singleAccessErrPP float64
	atlasSCOLatErr    float64
}

// rowHitErr is the mean absolute difference, in percentage points,
// between simulated FR-FCFS row-hit rates for SCO, TRS and DSP and the
// paper's.
func rowHitErr(simPct [3]float64) float64 {
	var sum float64
	for i, v := range simPct {
		sum += math.Abs(v - paperRowHitPct[i])
	}
	return sum / 3
}

// singleAccessErr is the mean distance, in percentage points, of each
// workload's single-access percentage outside the paper's band (zero
// for values inside it).
func singleAccessErr(simPct []float64) float64 {
	if len(simPct) == 0 {
		return 0
	}
	lo, hi := paperSingleAccessPct[0], paperSingleAccessPct[1]
	var sum float64
	for _, v := range simPct {
		sum += math.Max(0, math.Max(lo-v, v-hi))
	}
	return sum / float64(len(simPct))
}

// atlasLatErr is the absolute difference between the simulated
// ATLAS/FR-FCFS SCO latency ratio and the paper's.
func atlasLatErr(ratio float64) float64 { return math.Abs(ratio - paperATLASSCOLatency) }

// fidelityOf reads the three fidelity metrics from a Study's Figure 2,
// 3 and 8 tables (running whatever cells are not cached yet).
func fidelityOf(st *experiment.Study) (fidelity, error) {
	f2, f3, f8 := st.Figure02(), st.Figure03(), st.Figure08()
	cell := func(t *experiment.Table, row, col string) (float64, error) {
		v, ok := t.Cell(row, col)
		if !ok || math.IsNaN(v) {
			return 0, fmt.Errorf("%s has no value at %s/%s", t.ID, row, col)
		}
		return v, nil
	}
	var rowHit [3]float64
	for i, row := range []string{"Avg_SCO", "Avg_TRS", "Avg_DSP"} {
		v, err := cell(f2, row, "FR-FCFS")
		if err != nil {
			return fidelity{}, err
		}
		rowHit[i] = v
	}
	var single []float64
	for _, p := range workload.All() {
		v, err := cell(f8, p.Acronym, "1-access %")
		if err != nil {
			return fidelity{}, err
		}
		single = append(single, v)
	}
	atlas, err := cell(f3, "Avg_SCO", "ATLAS")
	if err != nil {
		return fidelity{}, err
	}
	return fidelity{
		rowHitErrPP:       rowHitErr(rowHit),
		singleAccessErrPP: singleAccessErr(single),
		atlasSCOLatErr:    atlasLatErr(atlas),
	}, nil
}

// referenceFidelity runs the quick-scale scheduler grid at seed
// (outside any timed region, two cells at a time) and returns its
// fidelity.
func referenceFidelity(seed uint64) (fidelity, error) {
	cfg := experiment.Quick()
	cfg.Seed = seed
	cfg.Parallelism = 2
	return fidelityOf(experiment.NewStudy(cfg))
}

package sched

import (
	"cloudmc/internal/dram"
	"cloudmc/internal/memctrl"
)

// FCFSBanksPolicy services each bank's requests strictly in arrival
// order while letting independent banks proceed in parallel — the
// "FCFS_banks" variant the paper evaluates (§2.1). It never reorders
// within a bank, so it cannot promote row hits past older conflicting
// requests; across banks it serves the bank whose head request is
// oldest.
type FCFSBanksPolicy struct {
	noHooks
}

// NewFCFSBanks returns the FCFS_Banks policy.
func NewFCFSBanks() *FCFSBanksPolicy { return &FCFSBanksPolicy{} }

// Name implements memctrl.Policy.
func (*FCFSBanksPolicy) Name() string { return "FCFS_Banks" }

// Pick implements memctrl.Policy: among options that advance their
// bank's oldest request, choose the globally oldest.
func (*FCFSBanksPolicy) Pick(v *memctrl.View) int {
	best := -1
	for i := range v.Options {
		opt := &v.Options[i]
		if opt.Req.ID != opt.BankOldestID {
			continue // per-bank FIFO: only the head may be served
		}
		if best == -1 || opt.Req.ID < v.Options[best].Req.ID {
			best = i
		}
	}
	return best
}

// DeclineHorizon implements memctrl.DeclineHorizon: Pick reads only
// each option's request and bank-oldest ID, so a declined view stays
// declined until its options change.
//
//mclint:hotpath
func (*FCFSBanksPolicy) DeclineHorizon(*memctrl.View) uint64 { return dram.Never }

// OnIssue implements memctrl.Policy.
func (*FCFSBanksPolicy) OnIssue(*memctrl.View, int, dram.Command, uint64) {}

// FRFCFSPolicy is the baseline first-ready first-come-first-served
// scheduler (Rixner et al., §2.1): column accesses that hit the open
// row are served before any other command; ties and non-hits are
// broken by age.
type FRFCFSPolicy struct {
	noHooks
}

// NewFRFCFS returns the FR-FCFS policy.
func NewFRFCFS() *FRFCFSPolicy { return &FRFCFSPolicy{} }

// Name implements memctrl.Policy.
func (*FRFCFSPolicy) Name() string { return "FR-FCFS" }

// Pick implements memctrl.Policy.
func (*FRFCFSPolicy) Pick(v *memctrl.View) int {
	best := -1
	bestHit := false
	for i := range v.Options {
		opt := &v.Options[i]
		switch {
		case best == -1,
			opt.RowHit && !bestHit,
			opt.RowHit == bestHit && opt.Req.ID < v.Options[best].Req.ID:
			best = i
			bestHit = opt.RowHit
		}
	}
	return best
}

// OnIssue implements memctrl.Policy.
func (*FRFCFSPolicy) OnIssue(*memctrl.View, int, dram.Command, uint64) {}

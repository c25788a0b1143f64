package memctrl_test

import (
	"testing"

	"cloudmc/internal/dram"
	"cloudmc/internal/memctrl"
	"cloudmc/internal/pagepolicy"
	"cloudmc/internal/sched"
)

// declineSetup builds a fast-forward controller under ATLAS (scan
// depth 2) and drives it into a declined cycle: reads A and B share
// row 5 of rank 0 bank 0 and hold the top two ranks (equal attained
// service, so the oldest two); read C targets rank 1 bank 1 and ranks
// third. Cycle 0 issues A's ACTIVATE; at cycle 1 A's READ waits for
// tRCD while C's ACTIVATE (another rank, no tRRD) is legal, outside
// the scan window. It returns the controller, the cycle of the
// declining tick and A's location.
func declineSetup(t testing.TB) (*memctrl.Controller, uint64, dram.Location) {
	t.Helper()
	geo := dram.Geometry{Channels: 1, Ranks: 2, Banks: 4, Rows: 1 << 10, Columns: 32, BlockBytes: 64}
	cfg := sched.DefaultATLASConfig()
	policy := sched.NewATLAS(cfg, sched.NewServiceTracker(4, cfg))
	ctl, err := memctrl.New(memctrl.DefaultConfig(), dram.NewChannel(0, geo, dram.DDR3_1600()), policy, pagepolicy.NewOpen())
	if err != nil {
		t.Fatal(err)
	}
	ctl.SetFastForward(true)
	locA := dram.Location{Rank: 0, Bank: 0, Row: 5, Column: 1}
	locB := dram.Location{Rank: 0, Bank: 0, Row: 5, Column: 2}
	locC := dram.Location{Rank: 1, Bank: 1, Row: 7, Column: 0}
	for i, l := range []dram.Location{locA, locB, locC} {
		if !ctl.EnqueueRead(0, memctrl.Source{Core: i, Tenant: -1}, uint64(i+1)<<6, l, memctrl.ReadDemand, nil) {
			t.Fatal("enqueue failed")
		}
	}
	ctl.Tick(0)
	if ctl.Channel().Stats.Activates != 1 {
		t.Fatalf("cycle 0 issued %d activates, want A's", ctl.Channel().Stats.Activates)
	}
	return ctl, 1, locA
}

// TestDeclineParkHorizonIsBlockedOptionLegality pins the decline park:
// with the top-2 ranked requests blocked by tRCD and only a
// lower-ranked option legal, ATLAS declines, and the controller parks
// until exactly the cycle the blocked READ becomes legal — found here
// by probing CanIssue, independently of EarliestIssue and the group
// caches.
func TestDeclineParkHorizonIsBlockedOptionLegality(t *testing.T) {
	ctl, now, locA := declineSetup(t)
	ctl.Tick(now)
	if ctl.Stats.DeclineParks != 1 || ctl.Stats.Parks != 1 {
		t.Fatalf("after the declined tick: DeclineParks %d, Parks %d, want 1 and 1", ctl.Stats.DeclineParks, ctl.Stats.Parks)
	}
	read := dram.Command{Kind: dram.CmdRead, Loc: locA}
	legal := now + 1
	for !ctl.Channel().CanIssue(legal, read) {
		legal++
	}
	if legal <= now+1 {
		t.Fatalf("A's READ legal at %d: tRCD did not block it", legal)
	}
	if w := ctl.ParkHorizon(); w != legal {
		t.Fatalf("ParkHorizon() = %d, want A's READ legality cycle %d", w, legal)
	}
	if err := ctl.VerifyParkHorizon(now, 0); err != nil {
		t.Fatal(err)
	}
	for now++; now < legal; now++ {
		ctl.Tick(now) // parked: provable no-ops
	}
	if got := ctl.Channel().Stats.Reads; got != 0 {
		t.Fatalf("%d reads issued inside the parked window", got)
	}
	ctl.Tick(legal)
	if got := ctl.Channel().Stats.Reads; got != 1 {
		t.Fatalf("wake-up tick at %d issued %d reads, want A's", legal, got)
	}
	if ctl.Stats.Wakes != 1 {
		t.Fatalf("Wakes = %d, want 1", ctl.Stats.Wakes)
	}
}

// TestDeclineParkWakesOnEnqueue checks that an enqueue into a
// decline-parked controller forces a full wake-up: the new request may
// enter ATLAS's scan window, so the established horizon cannot stand.
func TestDeclineParkWakesOnEnqueue(t *testing.T) {
	ctl, now, _ := declineSetup(t)
	ctl.Tick(now)
	if ctl.ParkHorizon() <= now+1 {
		t.Fatal("controller did not park")
	}
	l := dram.Location{Rank: 1, Bank: 2, Row: 9}
	if !ctl.EnqueueRead(now+1, memctrl.Source{Core: 3, Tenant: -1}, 9<<6, l, memctrl.ReadDemand, nil) {
		t.Fatal("enqueue failed")
	}
	if w := ctl.ParkHorizon(); w != 0 {
		t.Fatalf("ParkHorizon() after enqueue = %d, want 0 (full wake-up)", w)
	}
}

// TestDeclineParkTickAllocFree pins the decline-park path at 0
// allocations: a declining ATLAS Tick that folds the horizon and
// parks. SetFastForward re-opens the horizon so every run re-parks.
func TestDeclineParkTickAllocFree(t *testing.T) {
	ctl, now, _ := declineSetup(t)
	ctl.Tick(now) // size the scratch buffers
	parks := ctl.Stats.DeclineParks
	allocs := testing.AllocsPerRun(100, func() {
		ctl.SetFastForward(true)
		ctl.Tick(now)
	})
	if ctl.Stats.DeclineParks <= parks {
		t.Fatal("the measured ticks did not decline-park")
	}
	if allocs != 0 {
		t.Fatalf("declining Tick allocates %.1f times per call, want 0", allocs)
	}
}

// TestResetStatsCountsOpenDeclinePark checks a stats reset inside a
// decline park: the new window counts the open park (Parks and
// DeclineParks both 1), so the wake that ends it keeps Wakes <= Parks.
func TestResetStatsCountsOpenDeclinePark(t *testing.T) {
	ctl, now, _ := declineSetup(t)
	ctl.Tick(now)
	wake := ctl.ParkHorizon()
	ctl.ResetStats(now + 1)
	if ctl.Stats.Parks != 1 || ctl.Stats.DeclineParks != 1 {
		t.Fatalf("after the reset: Parks %d, DeclineParks %d, want 1 and 1", ctl.Stats.Parks, ctl.Stats.DeclineParks)
	}
	for now++; now <= wake; now++ {
		ctl.Tick(now)
	}
	if ctl.Stats.Wakes == 0 || ctl.Stats.Wakes > ctl.Stats.Parks {
		t.Fatalf("Wakes %d, Parks %d: want 0 < wakes <= parks", ctl.Stats.Wakes, ctl.Stats.Parks)
	}
}

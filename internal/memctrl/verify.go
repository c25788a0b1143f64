package memctrl

import (
	"fmt"

	"cloudmc/internal/dram"
)

// This file is diagnostic/test support for the event-horizon machinery:
// a brute-force, cycle-by-cycle re-derivation of "when could this
// parked controller act" from the raw legality rules, independent of
// the per-bank horizon cache and of dram.Channel.EarliestIssue. The
// exactness property suites (memctrl horizon tests and the core
// kernel differential tests) call it whenever a controller parks or
// re-arms; production code never does.

// ParkHorizon returns the controller's established event horizon: the
// earliest future cycle at which its state can change, or 0 when the
// horizon is unknown and the next tick runs in full. In-flight
// completions are not part of it (NextEvent folds those in).
func (c *Controller) ParkHorizon() uint64 { return c.wakeAt }

// VerifyParkHorizon checks that the event horizon established at
// cycle now is exact, by replaying the parked window cycle by cycle
// against dram.Channel.CanIssue. For an idle park (nothing was legal):
//
//   - never late: no queued request's next command, no surviving
//     pending close and no policy event becomes actionable strictly
//     before wakeAt;
//   - never early: at wakeAt itself something is actionable (unless
//     the horizon is Never or was clamped to now+1, where there is no
//     skipped window to verify).
//
// A decline park (the policy declined legal options) is checked by
// verifyDeclinePark, which replays the policy's Pick as well.
//
// The scan is capped at maxScan cycles past now; a horizon further
// out than the cap is only checked for lateness within the cap. The
// check is pure — no controller, policy or device state is mutated —
// so tests can call it at every park without perturbing the replay.
func (c *Controller) VerifyParkHorizon(now uint64, maxScan uint64) error {
	if !c.fastPath || c.wakeAt == 0 || c.wakeAt <= now+1 {
		return nil // hot or unknown: no skipped window
	}
	if c.declined {
		return c.verifyDeclinePark(now, maxScan)
	}

	// actionable reports whether any option (or surviving pending
	// close) would be legal at cycle t, from the same queue selection
	// the parking fold used and the same per-request commands
	// buildOptions would generate. Bank and queue state are frozen
	// while parked, so evaluating the predicate at future t against
	// current state is exactly what the per-cycle loop would see.
	actionable := func(t uint64) bool {
		check := func(q []*Request) bool {
			for _, r := range q {
				if c.ch.CanIssue(t, c.commandFor(r)) {
					return true
				}
			}
			return false
		}
		if c.parkMode != modeWrites && check(c.readQ) {
			return true
		}
		if c.parkMode != modeReads && check(c.writeQ) {
			return true
		}
		for b, pending := range c.pendingClose {
			if !pending {
				continue
			}
			rank := b / c.ch.Geo.Banks
			bankNo := b % c.ch.Geo.Banks
			bank := c.ch.Bank(rank, bankNo)
			if bank.State != dram.BankActive {
				continue
			}
			cmd := dram.Command{Kind: dram.CmdPrecharge, Loc: dram.Location{
				Channel: c.ch.ID, Rank: rank, Bank: bankNo, Row: bank.OpenRow,
			}}
			if c.ch.CanIssue(t, cmd) {
				return true
			}
		}
		return false
	}

	policyEvent := uint64(dram.Never)
	if eh, ok := c.policy.(EventHorizon); ok {
		policyEvent = eh.NextPolicyEvent(now)
	}

	limit := c.wakeAt
	capped := false
	if maxScan > 0 && limit-now > maxScan {
		limit = now + maxScan
		capped = true
	}
	for t := now + 1; t < limit; t++ {
		if actionable(t) {
			return fmt.Errorf("memctrl: late horizon: actionable at cycle %d but parked until %d (established at %d)", t, c.wakeAt, now)
		}
		if policyEvent <= t {
			return fmt.Errorf("memctrl: late horizon: policy event at %d but parked until %d (established at %d)", policyEvent, c.wakeAt, now)
		}
	}
	if capped || c.wakeAt == dram.Never {
		return nil
	}
	if !actionable(c.wakeAt) && policyEvent != c.wakeAt {
		return fmt.Errorf("memctrl: early horizon: nothing actionable at wake cycle %d (established at %d)", c.wakeAt, now)
	}
	return nil
}

// verifyDeclinePark is VerifyParkHorizon for a park established by
// declineHorizon. Options are legal throughout such a window, so the
// checks track what the declined decision depends on, against a view
// rebuilt from the queues at each replayed cycle (refCandidates):
//
//   - never late: strictly before wakeAt the legal option set never
//     grows, no surviving pending close becomes issuable, neither
//     NextPolicyEvent nor DeclineHorizon is due, and the policy's Pick
//     on the rebuilt view keeps returning -1;
//   - never early: at wakeAt the option set grows, a pending close
//     becomes issuable, or one of the two policy horizons is due.
//
// Replaying Pick is sound because a DeclineHorizon policy's Pick is a
// function of the View: it leaves nothing behind the simulation reads.
func (c *Controller) verifyDeclinePark(now uint64, maxScan uint64) error {
	dh, ok := c.policy.(DeclineHorizon)
	if !ok {
		return fmt.Errorf("memctrl: decline park under policy %s, which does not implement DeclineHorizon (established at %d)", c.policy.Name(), now)
	}
	cands, hits := c.refCandidates()
	var buf []Option
	viewAt := func(t uint64) View {
		buf = buf[:0]
		for _, o := range cands {
			if c.ch.CanIssue(t, o.Cmd) {
				buf = append(buf, o)
			}
		}
		return View{
			Now: t, Options: buf,
			ReadQLen: len(c.readQ), WriteQLen: len(c.writeQ),
			WriteMode: c.effectiveWriteMode(), PendingRowHits: hits,
			Channel: c.ch.ID, ReadQueue: c.readQ, WriteQueue: c.writeQ,
		}
	}
	closeDue := func(t uint64) bool {
		for b, pending := range c.pendingClose {
			if !pending {
				continue
			}
			rank, bankNo := b/c.ch.Geo.Banks, b%c.ch.Geo.Banks
			bank := c.ch.Bank(rank, bankNo)
			if bank.State != dram.BankActive {
				continue
			}
			cmd := dram.Command{Kind: dram.CmdPrecharge, Loc: dram.Location{
				Channel: c.ch.ID, Rank: rank, Bank: bankNo, Row: bank.OpenRow,
			}}
			if c.ch.CanIssue(t, cmd) {
				return true
			}
		}
		return false
	}

	base := viewAt(now)
	declined := len(base.Options)
	if declined == 0 {
		return fmt.Errorf("memctrl: decline park with no legal option at %d", now)
	}
	declineAt := dh.DeclineHorizon(&base)
	policyEvent := uint64(dram.Never)
	if eh, ok := c.policy.(EventHorizon); ok {
		policyEvent = eh.NextPolicyEvent(now)
	}

	limit := c.wakeAt
	capped := false
	if maxScan > 0 && limit-now > maxScan {
		limit = now + maxScan
		capped = true
	}
	for t := now + 1; t < limit; t++ {
		v := viewAt(t)
		if len(v.Options) > declined {
			return fmt.Errorf("memctrl: late decline horizon: %d options legal at cycle %d (%d declined) but parked until %d (established at %d)", len(v.Options), t, declined, c.wakeAt, now)
		}
		if closeDue(t) {
			return fmt.Errorf("memctrl: late decline horizon: pending close issuable at cycle %d but parked until %d (established at %d)", t, c.wakeAt, now)
		}
		if policyEvent <= t || declineAt <= t {
			return fmt.Errorf("memctrl: late decline horizon: policy event %d / decline horizon %d due by cycle %d but parked until %d (established at %d)", policyEvent, declineAt, t, c.wakeAt, now)
		}
		if p := c.policy.Pick(&v); p >= 0 {
			return fmt.Errorf("memctrl: late decline horizon: policy picks option %d at cycle %d but parked until %d (established at %d)", p, t, c.wakeAt, now)
		}
	}
	if capped || c.wakeAt == dram.Never {
		return nil
	}
	if len(viewAt(c.wakeAt).Options) <= declined && !closeDue(c.wakeAt) &&
		policyEvent != c.wakeAt && declineAt != c.wakeAt {
		return fmt.Errorf("memctrl: early decline horizon: nothing changes at wake cycle %d (established at %d)", c.wakeAt, now)
	}
	return nil
}

// refCandidates rebuilds from the queues alone every candidate command
// the option builder derives under the current queue mode — one per
// (rank, bank, row) group in first-appearance order (primary queue,
// then secondary), each carried by the group's oldest considered
// request with its bank's oldest considered ID — and counts the
// row-hit candidates (View.PendingRowHits). It shares nothing with
// the candidate-group index or its caches and is quadratic in the
// queue length; legality at a cycle is left to CanIssue, since bank
// and queue state are frozen while parked.
func (c *Controller) refCandidates() ([]Option, int) {
	primary, secondary := c.consideredQueues(considersWrites(c.policy))
	qs := [][]*Request{primary, secondary}
	var cands []Option
	hits := 0
	for _, q := range qs {
		for _, r := range q {
			seen := false
			for i := range cands {
				l := cands[i].Req.Loc
				if l.Rank == r.Loc.Rank && l.Bank == r.Loc.Bank && l.Row == r.Loc.Row {
					seen = true
					break
				}
			}
			if seen {
				continue
			}
			rep, oldest := r, uint64(noID)
			for _, q2 := range qs {
				for _, x := range q2 {
					if x.Loc.Rank != r.Loc.Rank || x.Loc.Bank != r.Loc.Bank {
						continue
					}
					if x.ID < oldest {
						oldest = x.ID
					}
					if x.Loc.Row == r.Loc.Row && x.ID < rep.ID {
						rep = x
					}
				}
			}
			cmd := c.commandFor(rep)
			hit := cmd.Kind.IsColumn()
			if hit {
				hits++
			}
			cands = append(cands, Option{Cmd: cmd, Req: rep, RowHit: hit, BankOldestID: oldest})
		}
	}
	return cands, hits
}

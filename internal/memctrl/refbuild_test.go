package memctrl

import (
	"fmt"
	"math/bits"

	"cloudmc/internal/dram"
)

// This file holds the test-only reference rebuild of the option list
// and the candidate-group audit built on it. It is compiled into the
// package's tests alone, so the external groups property suite can
// call VerifyCandidateGroups while production controllers carry none
// of its state.

// refRebuild is the scratch of one reference rebuild: the
// (rank, bank, row) grouping and per-bank oldest-ID index use
// epoch-stamped open addressing (no per-call clearing, no runtime map
// machinery), reused across the rebuilds of one audit.
type refRebuild struct {
	refBuf     []Option
	groups     groupTable
	gkOrder    []uint32 // slot indices into groups, insertion order
	bankOldest []uint64 // per bankIdx; valid iff bankEpoch matches
	bankEpoch  []uint32
}

// groupTable indexes queued requests by (bankIdx, row), keeping the
// oldest request of each group. Slots are invalidated wholesale by
// bumping the epoch; load factor stays at or below 50% because the
// table is sized by the queue capacities.
type groupTable struct {
	slots []groupSlot
	mask  uint64
	shift uint
	epoch uint32
}

type groupSlot struct {
	key   uint64
	epoch uint32
	//mclint:owns -- reference-rebuild scratch: every slot is epoch-invalidated at the top of each buildOptionsRef call, so a stale pointer is never dereferenced
	req *Request
}

// newGroupTable sizes the table for at most maxGroups resident
// entries: the smallest power of two >= 2*maxGroups (minimum 8),
// keeping the load factor at or below 50%.
func newGroupTable(maxGroups int) groupTable {
	n := uint(bits.Len64(2*uint64(maxGroups) - 1))
	if n < 3 {
		n = 3
	}
	return groupTable{slots: make([]groupSlot, uint64(1)<<n), mask: uint64(1)<<n - 1, shift: 64 - n}
}

// reset invalidates every slot in O(1) by advancing the epoch. It
// reports whether the epoch wrapped, so callers can clear their own
// epoch-stamped side tables in the same (once per 2^32 resets) stroke.
func (t *groupTable) reset() (wrapped bool) {
	t.epoch++
	if t.epoch == 0 {
		// Wrapped: stale slots could alias the new epoch; clear once
		// every 2^32 resets.
		for i := range t.slots {
			t.slots[i] = groupSlot{}
		}
		t.epoch = 1
		wrapped = true
	}
	return wrapped
}

// slot returns the slot index for key, probing past live entries with
// other keys; the returned slot either matches key or is free this
// epoch.
func (t *groupTable) slot(key uint64) uint32 {
	i := (key * 0x9e3779b97f4a7c15) >> t.shift
	for {
		s := &t.slots[i]
		if s.epoch != t.epoch || s.key == key {
			return uint32(i)
		}
		i = (i + 1) & t.mask
	}
}

// buildOptionsRef is the straight-port reference rebuild: the per-tick
// O(queue) grouping pass buildOptions replaced, preserved verbatim as
// the exactness twin. VerifyCandidateGroups regenerates the option
// list through it and requires bit-identical output from the
// incremental index.
func (ref *refRebuild) buildOptionsRef(c *Controller, now uint64, mixed bool) ([]Option, int) {
	if ref.groups.slots == nil {
		ref.groups = newGroupTable(c.cfg.ReadQueueCap + c.cfg.WriteQueueCap)
		ref.bankOldest = make([]uint64, len(c.bankQ))
		ref.bankEpoch = make([]uint32, len(c.bankQ))
	}
	ref.refBuf = ref.refBuf[:0]
	if ref.groups.reset() {
		// bankEpoch is stamped with groups.epoch; a wrap makes ancient
		// stamps alias the fresh epoch, so clear them together.
		for i := range ref.bankEpoch {
			ref.bankEpoch[i] = 0
		}
	}
	ref.gkOrder = ref.gkOrder[:0]
	epoch := ref.groups.epoch

	collect := func(q []*Request) {
		for _, r := range q {
			bk := r.Loc.Rank*c.ch.Geo.Banks + r.Loc.Bank
			key := uint64(bk)<<32 | uint64(uint32(r.Loc.Row))
			si := ref.groups.slot(key)
			s := &ref.groups.slots[si]
			if s.epoch != epoch {
				*s = groupSlot{key: key, epoch: epoch, req: r}
				ref.gkOrder = append(ref.gkOrder, si)
			} else if r.ID < s.req.ID {
				s.req = r
			}
			if ref.bankEpoch[bk] != epoch || r.ID < ref.bankOldest[bk] {
				ref.bankEpoch[bk] = epoch
				ref.bankOldest[bk] = r.ID
			}
		}
	}
	var pendingHits int
	primary, secondary := c.consideredQueues(mixed)
	collect(primary)
	if secondary != nil {
		collect(secondary)
	}

	for _, si := range ref.gkOrder {
		r := ref.groups.slots[si].req
		// The group's (rank, bank, row) is the representative
		// request's own location.
		loc := r.Loc
		oldest := ref.bankOldest[loc.Rank*c.ch.Geo.Banks+loc.Bank]
		bank := c.ch.Bank(loc.Rank, loc.Bank)
		switch {
		case bank.State == dram.BankIdle:
			cmd := dram.Command{Kind: dram.CmdActivate, Loc: loc}
			if c.ch.CanIssue(now, cmd) {
				ref.refBuf = append(ref.refBuf, Option{Cmd: cmd, Req: r, BankOldestID: oldest})
			}
		case bank.OpenRow == loc.Row:
			pendingHits++
			kind := dram.CmdRead
			if r.Kind.IsWrite() {
				kind = dram.CmdWrite
			}
			cmd := dram.Command{Kind: kind, Loc: loc}
			if c.ch.CanIssue(now, cmd) {
				ref.refBuf = append(ref.refBuf, Option{Cmd: cmd, Req: r, RowHit: true, BankOldestID: oldest})
			}
		default:
			cmd := dram.Command{Kind: dram.CmdPrecharge, Loc: loc}
			if c.ch.CanIssue(now, cmd) {
				ref.refBuf = append(ref.refBuf, Option{Cmd: cmd, Req: r, BankOldestID: oldest})
			}
		}
	}

	return ref.refBuf, pendingHits
}

// VerifyCandidateGroups checks the incremental candidate-group index
// (groups.go) against first principles: the structural invariants the
// maintenance paths promise, then a behavioral comparison of
// buildOptions against buildOptionsRef, the preserved straight-port
// rebuild. It is the group-index twin of VerifyParkHorizon; the
// property suites (groups_property_test.go) call it between ticks.
//
// Precondition: call at a cycle boundary, before any command has been
// issued at cycle now. The cached-legality argument (see group's
// cacheOK comment) relies on the command bus being untouched this
// cycle; calling mid-tick after an issue can report false mismatches.
// The check folds pending enqueues and refreshes the per-group caches
// and c.view — all state the next tick would recompute anyway — but
// issues nothing and consults no policy.
func (c *Controller) VerifyCandidateGroups(now uint64) error {
	c.groupFold()

	// Structural pass. Live handles are the ones reachable from the
	// per-bank group lists; together with the free list they must
	// partition the arena.
	live := make(map[int32]int32, len(c.grp)) // handle -> bankIdx
	rows := make(map[int64]bool)              // bankIdx<<32|row dedup
	for bk := range c.bankQ {
		for _, h := range c.bankQ[bk].groups {
			if h < 0 || int(h) >= len(c.grp) {
				return fmt.Errorf("memctrl: groups: bank %d lists out-of-range handle %d", bk, h)
			}
			if _, ok := live[h]; ok {
				return fmt.Errorf("memctrl: groups: handle %d listed by two banks", h)
			}
			live[h] = int32(bk)
			g := &c.grp[h]
			if g.bank != int32(bk) {
				return fmt.Errorf("memctrl: groups: handle %d in bank %d claims bank %d", h, bk, g.bank)
			}
			if int(g.rankNo)*c.ch.Geo.Banks+int(g.bankNo) != bk {
				return fmt.Errorf("memctrl: groups: handle %d rank/bank %d/%d disagrees with bank index %d", h, g.rankNo, g.bankNo, bk)
			}
			if g.bankRef != c.ch.Bank(int(g.rankNo), int(g.bankNo)) || g.rankRef != &c.ch.Ranks[g.rankNo] {
				return fmt.Errorf("memctrl: groups: handle %d has stale bank/rank pointers", h)
			}
			if len(g.reads) == 0 && len(g.writes) == 0 {
				return fmt.Errorf("memctrl: groups: handle %d is live but empty", h)
			}
			key := int64(g.bank)<<32 | int64(int32(g.row))
			if rows[key] {
				return fmt.Errorf("memctrl: groups: bank %d row %d has two groups", bk, g.row)
			}
			rows[key] = true
			for _, lst := range [][]*Request{g.reads, g.writes} {
				for i, r := range lst {
					if r.Loc.Row != g.row || r.Loc.Rank != int(g.rankNo) || r.Loc.Bank != int(g.bankNo) {
						return fmt.Errorf("memctrl: groups: request %d filed in wrong group (bank %d row %d)", r.ID, bk, g.row)
					}
					if i > 0 && lst[i-1].ID >= r.ID {
						return fmt.Errorf("memctrl: groups: handle %d list not ID-ascending at request %d", h, r.ID)
					}
				}
			}
		}
	}
	for _, h := range c.grpFree {
		if h < 0 || int(h) >= len(c.grp) {
			return fmt.Errorf("memctrl: groups: free list holds out-of-range handle %d", h)
		}
		if _, ok := live[h]; ok {
			return fmt.Errorf("memctrl: groups: handle %d is both live and free", h)
		}
	}
	if len(live)+len(c.grpFree) != len(c.grp) {
		return fmt.Errorf("memctrl: groups: arena of %d entries splits into %d live + %d free", len(c.grp), len(live), len(c.grpFree))
	}

	// Every queued request must be filed in its group's kind list, and
	// the totals must match (so no group holds a stale extra).
	nFiled := 0
	for h := range live { //mclint:order-insensitive -- summing sizes
		nFiled += len(c.grp[h].reads) + len(c.grp[h].writes)
	}
	if nFiled != len(c.readQ)+len(c.writeQ) {
		return fmt.Errorf("memctrl: groups: %d requests filed, %d queued", nFiled, len(c.readQ)+len(c.writeQ))
	}
	find := func(r *Request) error {
		bk := int32(r.Loc.Rank*c.ch.Geo.Banks + r.Loc.Bank)
		for _, h := range c.bankQ[bk].groups {
			g := &c.grp[h]
			if g.row != r.Loc.Row {
				continue
			}
			lst := g.reads
			if r.Kind.IsWrite() {
				lst = g.writes
			}
			for _, x := range lst {
				if x == r {
					return nil
				}
			}
		}
		return fmt.Errorf("memctrl: groups: queued request %d not filed in any group", r.ID)
	}
	for _, r := range c.readQ {
		if err := find(r); err != nil {
			return err
		}
	}
	for _, r := range c.writeQ {
		if err := find(r); err != nil {
			return err
		}
	}

	// Order arrays: exactly the groups holding that kind, ascending by
	// oldest-member ID.
	checkOrder := func(name string, order []int32, writes bool) error {
		seen := make(map[int32]bool, len(order))
		prev := uint64(0)
		for i, h := range order {
			if _, ok := live[h]; !ok {
				return fmt.Errorf("memctrl: groups: %s holds dead handle %d", name, h)
			}
			if seen[h] {
				return fmt.Errorf("memctrl: groups: %s holds handle %d twice", name, h)
			}
			seen[h] = true
			key := c.orderKey(h, writes)
			if i > 0 && key <= prev {
				return fmt.Errorf("memctrl: groups: %s not key-ascending at handle %d", name, h)
			}
			prev = key
		}
		want := 0
		for h := range live { //mclint:order-insensitive -- membership count; order picks at most which error reports first
			n := len(c.grp[h].reads)
			if writes {
				n = len(c.grp[h].writes)
			}
			if n > 0 {
				want++
				if !seen[h] {
					return fmt.Errorf("memctrl: groups: handle %d missing from %s", h, name)
				}
			}
		}
		if want != len(order) {
			return fmt.Errorf("memctrl: groups: %s lists %d groups, want %d", name, len(order), want)
		}
		return nil
	}
	if err := checkOrder("readOrder", c.readOrder, false); err != nil {
		return err
	}
	if err := checkOrder("writeOrder", c.writeOrder, true); err != nil {
		return err
	}

	// Per-bank oldest-ID index.
	for bk := range c.bankQ {
		minR, minW := uint64(noID), uint64(noID)
		for _, h := range c.bankQ[bk].groups {
			g := &c.grp[h]
			if len(g.reads) > 0 && g.reads[0].ID < minR {
				minR = g.reads[0].ID
			}
			if len(g.writes) > 0 && g.writes[0].ID < minW {
				minW = g.writes[0].ID
			}
		}
		if c.bankMinRead[bk] != minR || c.bankMinWrite[bk] != minW {
			return fmt.Errorf("memctrl: groups: bank %d oldest-ID index (%d, %d), want (%d, %d)",
				bk, c.bankMinRead[bk], c.bankMinWrite[bk], minR, minW)
		}
	}

	// Behavioral pass: the incremental build must reproduce the
	// reference rebuild bit for bit, in every queue-selection mode the
	// current state can express.
	var rb refRebuild
	for _, mixed := range []bool{false, true} {
		ref, refHits := rb.buildOptionsRef(c, now, mixed)
		c.buildOptions(now, mixed)
		got, gotHits := c.view.Options, c.view.PendingRowHits
		if len(got) != len(ref) {
			return fmt.Errorf("memctrl: groups: mixed=%v: %d options, reference built %d", mixed, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				return fmt.Errorf("memctrl: groups: mixed=%v: option %d = %+v, reference built %+v", mixed, i, got[i], ref[i])
			}
		}
		if gotHits != refHits {
			return fmt.Errorf("memctrl: groups: mixed=%v: PendingRowHits %d, reference counted %d", mixed, gotHits, refHits)
		}
	}
	return nil
}

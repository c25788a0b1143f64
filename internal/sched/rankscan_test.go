package sched

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"cloudmc/internal/dram"
	"cloudmc/internal/memctrl"
)

// refPick is the ATLAS/QoS selection as it stood before the
// single-pass scan, kept as the differential oracle: the starvation
// override, then for each scan position n < depth the n-th queued read
// in (rank, age) order — found by n+1 min-scans of the read queue —
// matched against the options. It also returns the scan position of
// the winner (-1 when the starvation override or write mode decided,
// or nothing was picked).
func refPick(v *memctrl.View, depth int, starvation uint64, rank func(*memctrl.Request) int) (pick, pos int) {
	if v.WriteMode {
		return pickFRFCFS(v), -1
	}
	best := -1
	for i := range v.Options {
		opt := &v.Options[i]
		if opt.Req.Age(v.Now) < starvation {
			continue
		}
		if best == -1 || opt.Req.ID < v.Options[best].Req.ID {
			best = i
		}
	}
	if best >= 0 {
		return best, -1
	}
	before := func(a, b *memctrl.Request) bool {
		ra, rb := rank(a), rank(b)
		if ra != rb {
			return ra < rb
		}
		return a.ID < b.ID
	}
	nthByRank := func(n int) *memctrl.Request {
		var prev *memctrl.Request
		for k := 0; k <= n; k++ {
			var best *memctrl.Request
			for _, r := range v.ReadQueue {
				if prev != nil && !before(prev, r) {
					continue
				}
				if best == nil || before(r, best) {
					best = r
				}
			}
			if best == nil {
				return nil
			}
			prev = best
		}
		return prev
	}
	for n := 0; n < depth; n++ {
		req := nthByRank(n)
		if req == nil {
			return -1, -1
		}
		for i := range v.Options {
			if v.Options[i].Req == req {
				return i, n
			}
		}
	}
	return -1, -1
}

// scanCase is one randomized policy configuration: a scan depth, a
// slot count and a ranking mode, with the policy under test and the
// oracle's view of its ranks.
type scanCase struct {
	name     string
	depth    int // resolved scan depth the oracle uses
	byTenant bool
	slots    int
	ranks    []int // the tracker's live rank slice
	pick     func(*memctrl.View) int
	// rerank refreshes the tracker's ranks at a quantum boundary.
	rerank func(rng *rand.Rand, now uint64)
}

const (
	scanNow        = 1_000_000
	scanStarvation = 5_000
)

func newScanCase(rng *rand.Rand, qos bool) scanCase {
	depths := []int{-1, 0, 1, 2, 3, 8}
	depth := depths[rng.Intn(len(depths))]
	c := scanCase{byTenant: rng.Intn(2) == 0, slots: 1 + rng.Intn(16)}
	if qos {
		cfg := DefaultQoSConfig()
		cfg.QuantumCycles, cfg.StarvationThreshold, cfg.ScanDepth = 1_000, scanStarvation, depth
		tr := NewQoSTracker(c.slots, cfg)
		p := NewQoS(cfg, tr, c.byTenant)
		c.name, c.ranks, c.pick, c.depth = "QoS", tr.rank, p.Pick, depth
		c.rerank = func(rng *rand.Rand, now uint64) {
			for s := 0; s <= c.slots; s++ {
				tr.AddService(s, float64(rng.Intn(4)))
				for n := rng.Intn(3); n > 0; n-- {
					tr.ObserveRead(s, uint64(50+rng.Intn(300)))
				}
			}
			tr.Tick(now)
		}
		if depth <= 0 {
			c.depth = 4
		}
		return c
	}
	cfg := ATLASConfig{QuantumCycles: 1_000, Alpha: 0.875, StarvationThreshold: scanStarvation, ScanDepth: depth}
	tr := NewServiceTracker(c.slots, cfg)
	p := NewATLAS(cfg, tr)
	if c.byTenant {
		p = NewATLASTenants(cfg, tr)
	}
	c.name, c.ranks, c.pick, c.depth = "ATLAS", tr.rank, p.Pick, depth
	c.rerank = func(rng *rand.Rand, now uint64) {
		for s := 0; s <= c.slots; s++ {
			tr.AddService(s, float64(rng.Intn(4)))
		}
		tr.Tick(now)
	}
	if depth <= 0 {
		c.depth = 2
	}
	return c
}

// setRanks installs fresh ranks for the next view: a tracker re-rank
// at a quantum boundary, a random permutation, or a few rank values
// shared across slots (ties the tracker never produces, which the
// selection must still break by age exactly as the oracle does).
func (c *scanCase) setRanks(rng *rand.Rand, quantum int) (ties bool) {
	switch rng.Intn(3) {
	case 0:
		c.rerank(rng, uint64(quantum+1)*1_000)
	case 1:
		for i, r := range rng.Perm(len(c.ranks)) {
			c.ranks[i] = r
		}
	default:
		for i := range c.ranks {
			c.ranks[i] = rng.Intn(3)
		}
		return true
	}
	return false
}

// slotOf is the oracle's slot mapping: the policy's, restated.
func (c *scanCase) slotOf(r *memctrl.Request) int {
	who := r.Core
	if c.byTenant {
		who = r.Tenant
	}
	if who < 0 || who >= c.slots {
		return c.slots
	}
	return who
}

// randScanView builds a view with 0–64 queued reads (unique IDs, cores
// and tenants including -1 and out-of-range IDs, a few starving) and
// up to 12 options drawn from anywhere in the queue, options sharing a
// request, and write requests absent from the read queue.
func randScanView(rng *rand.Rand, slots int) *memctrl.View {
	n := rng.Intn(65)
	ids := rng.Perm(3 * (n + 12))
	if rng.Intn(4) != 0 {
		// Arrival order, as the controller exposes the queue.
		slices.Sort(ids[:n])
	}
	starve := rng.Intn(4) == 0
	newReq := func(id int) *memctrl.Request {
		age := uint64(rng.Intn(scanStarvation))
		if starve && rng.Intn(8) == 0 {
			age = scanStarvation + uint64(rng.Intn(1000))
		}
		return &memctrl.Request{
			ID:      uint64(id) + 1,
			Core:    rng.Intn(slots+3) - 1,
			Tenant:  rng.Intn(slots+3) - 1,
			Arrival: scanNow - age,
		}
	}
	v := &memctrl.View{Now: scanNow, WriteMode: rng.Intn(10) == 0}
	for i := 0; i < n; i++ {
		v.ReadQueue = append(v.ReadQueue, newReq(ids[i]))
	}
	nextID := n
	kinds := []dram.CommandKind{dram.CmdActivate, dram.CmdRead, dram.CmdPrecharge, dram.CmdWrite}
	for m := rng.Intn(13); m > 0; m-- {
		var req *memctrl.Request
		switch x := rng.Intn(10); {
		case x < 2 && len(v.Options) > 0:
			req = v.Options[rng.Intn(len(v.Options))].Req // shared request
		case x < 8 && n > 0:
			req = v.ReadQueue[rng.Intn(n)]
		default:
			req = newReq(ids[nextID]) // a write, never in the read queue
			nextID++
		}
		v.Options = append(v.Options, memctrl.Option{
			Cmd:    dram.Command{Kind: kinds[rng.Intn(len(kinds))]},
			Req:    req,
			RowHit: rng.Intn(3) == 0,
		})
	}
	v.ReadQLen = len(v.ReadQueue)
	return v
}

// TestRankedPickMatchesReference drives ATLAS and QoS Pick and the
// pre-single-pass oracle over thousands of seeded random views and
// requires the same pick on every one. Each policy instance serves a
// run of views, so stale selection scratch between Picks would show.
func TestRankedPickMatchesReference(t *testing.T) {
	const casesPerPolicy, viewsPerCase = 200, 15
	for _, qos := range []bool{false, true} {
		rng := rand.New(rand.NewSource(20161116))
		var views, idle, deep, shared, ties, starved, writeMode, tenant int
		for ci := 0; ci < casesPerPolicy; ci++ {
			c := newScanCase(rng, qos)
			for vi := 0; vi < viewsPerCase; vi++ {
				tied := c.setRanks(rng, vi)
				v := randScanView(rng, c.slots)
				want, pos := refPick(v, c.depth, scanStarvation, func(r *memctrl.Request) int {
					return c.ranks[c.slotOf(r)]
				})
				if got := c.pick(v); got != want {
					t.Fatalf("%s case %d view %d (depth %d, byTenant %v, %d reads, %d options): pick = %d, reference = %d",
						c.name, ci, vi, c.depth, c.byTenant, len(v.ReadQueue), len(v.Options), got, want)
				}
				views++
				switch {
				case v.WriteMode:
					writeMode++
				case pos < 0 && want >= 0:
					starved++
				case want < 0 && len(v.ReadQueue) > c.depth && len(v.Options) > 0:
					idle++
				}
				if pos > 0 {
					deep++
				}
				if want >= 0 {
					for i := range v.Options {
						if i != want && v.Options[i].Req == v.Options[want].Req {
							shared++
							break
						}
					}
				}
				if tied {
					ties++
				}
				if c.byTenant {
					tenant++
				}
			}
		}
		// The generator must keep reaching every regime it claims to.
		for _, c := range []struct {
			what string
			n    int
		}{
			{"idle picks (options only outside the window)", idle},
			{"picks below the top request", deep},
			{"picks of a shared request", shared},
			{"views with rank ties across slots", ties},
			{"starvation overrides", starved},
			{"write-mode views", writeMode},
			{"byTenant views", tenant},
		} {
			if c.n == 0 {
				t.Errorf("qos=%v: no %s in %d views", qos, c.what, views)
			}
		}
	}
}

// scanBenchView is a 48-deep read queue (the colo-atlas average) over
// 16 cores with a dozen options spread through it.
func scanBenchView() *memctrl.View {
	v := &memctrl.View{Now: 10_000}
	for i := 0; i < 48; i++ {
		v.ReadQueue = append(v.ReadQueue, &memctrl.Request{ID: uint64(i + 1), Core: i % 16, Tenant: i % 2, Arrival: 9_000})
	}
	for i := 0; i < 48; i += 4 {
		v.Options = append(v.Options, memctrl.Option{Cmd: dram.Command{Kind: dram.CmdActivate}, Req: v.ReadQueue[i]})
	}
	return v
}

// TestRankedPickAllocFree pins the ATLAS and QoS Pick paths, which
// hotalloc cannot reach through the Policy interface, at 0 allocations.
func TestRankedPickAllocFree(t *testing.T) {
	v := scanBenchView()
	acfg := ATLASConfig{QuantumCycles: 1_000, Alpha: 0.875, StarvationThreshold: 1 << 20, ScanDepth: 8}
	atlas := NewATLAS(acfg, NewServiceTracker(16, acfg))
	qcfg := DefaultQoSConfig()
	qos := NewQoS(qcfg, NewQoSTracker(2, qcfg), true)
	for _, p := range []memctrl.Policy{atlas, qos} {
		if n := testing.AllocsPerRun(200, func() { p.Pick(v) }); n != 0 {
			t.Errorf("%s Pick: %v allocs/op, want 0", p.Name(), n)
		}
	}
}

// TestTrackerTickAllocFree pins a quantum rollover — the re-ranking
// Tick — at 0 allocations for both trackers, and checks that the
// hoisted order scratch leaves the ranks a permutation.
func TestTrackerTickAllocFree(t *testing.T) {
	acfg := ATLASConfig{QuantumCycles: 1_000, Alpha: 0.875, StarvationThreshold: 1 << 20, ScanDepth: 2}
	atlas := NewATLAS(acfg, NewServiceTracker(16, acfg))
	qcfg := DefaultQoSConfig()
	qcfg.QuantumCycles = 1_000
	qtr := NewQoSTracker(16, qcfg)
	qos := NewQoS(qcfg, qtr, false)
	for _, p := range []memctrl.Policy{atlas, qos} {
		now := uint64(0)
		slot := 0
		// Both trackers get fresh service and latency every call, so
		// each re-rank sorts new totals.
		tick := func() {
			now += 1_000 // every call lands on a quantum boundary
			slot = (slot + 5) % 17
			atlas.tracker.AddService(slot, float64(slot))
			qtr.AddService(slot, float64(slot))
			qtr.ObserveRead(slot, uint64(100*slot))
			p.Tick(now)
		}
		if n := testing.AllocsPerRun(200, tick); n != 0 {
			t.Errorf("%s Tick at a boundary: %v allocs/op, want 0", p.Name(), n)
		}
	}
	for _, rank := range [][]int{atlas.tracker.rank, qtr.rank} {
		seen := make([]bool, len(rank))
		for _, r := range rank {
			if r < 0 || r >= len(rank) || seen[r] {
				t.Fatalf("ranks %v are not a permutation", rank)
			}
			seen[r] = true
		}
	}
}

func TestOptsValidate(t *testing.T) {
	atlas := func(depth int, alpha float64) Opts {
		return Opts{ATLAS: ATLASConfig{QuantumCycles: 1_000, Alpha: alpha, StarvationThreshold: 100, ScanDepth: depth}}
	}
	qos := func(depth int, alpha float64) Opts {
		cfg := DefaultQoSConfig()
		cfg.ScanDepth, cfg.Alpha = depth, alpha
		return Opts{QoS: cfg}
	}
	for _, tc := range []struct {
		name string
		opts Opts
		ok   bool
	}{
		{"zero sub-configs select defaults", Opts{Cores: 16}, true},
		{"explicit defaults", Opts{ATLAS: DefaultATLASConfig(), QoS: DefaultQoSConfig()}, true},
		{"ATLAS depth 0 selects the default", atlas(0, 0.875), true},
		{"ATLAS alpha 0", atlas(2, 0), true},
		{"ATLAS alpha 1", atlas(2, 1), true},
		{"ATLAS negative depth", atlas(-1, 0.875), false},
		{"ATLAS alpha NaN", atlas(2, math.NaN()), false},
		{"ATLAS alpha below 0", atlas(2, -0.125), false},
		{"ATLAS alpha above 1", atlas(2, 1.5), false},
		{"ATLAS alpha +Inf", atlas(2, math.Inf(1)), false},
		{"QoS depth 0 selects the default", qos(0, 0.875), true},
		{"QoS negative depth", qos(-4, 0.875), false},
		{"QoS alpha NaN", qos(4, math.NaN()), false},
		{"QoS alpha above 1", qos(4, 2), false},
		{"bad QoS beside good ATLAS", Opts{ATLAS: DefaultATLASConfig(), QoS: qos(4, -1).QoS}, false},
	} {
		err := tc.opts.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

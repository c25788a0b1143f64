package sched

import (
	"cloudmc/internal/dram"
	"cloudmc/internal/memctrl"
)

// ATLASConfig holds the ATLAS parameters (paper Table 3).
type ATLASConfig struct {
	// QuantumCycles is the ranking quantum length (10M cycles).
	QuantumCycles uint64
	// Alpha is the exponential-smoothing bias toward the current
	// quantum's attained service (0.875).
	Alpha float64
	// StarvationThreshold is the request age (cycles) beyond which
	// requests are served oldest-first regardless of rank (50K).
	StarvationThreshold uint64
	// ScanDepth models the bounded pick logic of the hardware
	// scheduler: each cycle ATLAS walks the queued requests in rank
	// order and issues the first legal command within the top
	// ScanDepth requests, idling otherwise. A low-ranked (heavy) core
	// therefore makes no progress while higher-ranked requests occupy
	// the scan window — the long-deprioritization behaviour the paper
	// reports for imbalanced scale-out workloads (§4.1.1).
	ScanDepth int
}

// DefaultATLASConfig returns the paper's configuration.
func DefaultATLASConfig() ATLASConfig {
	return ATLASConfig{
		QuantumCycles:       10_000_000,
		Alpha:               0.875,
		StarvationThreshold: 50_000,
		ScanDepth:           2,
	}
}

// ServiceTracker accumulates per-core attained memory service time
// across all memory controllers and recomputes the ATLAS ranking at
// quantum boundaries. One tracker is shared by every channel's ATLAS
// instance (the paper's "long time quanta ... coordinate multiple
// controllers" idea).
type ServiceTracker struct {
	cfg ATLASConfig
	// service[slot] is the attained service in the current quantum;
	// total[slot] is the exponentially smoothed total.
	service []float64
	total   []float64
	// rank[slot]: 0 is the highest priority (least attained service).
	rank []int
	// order is the re-ranking scratch, allocated once so a quantum
	// rollover does not allocate.
	order       []int
	nextQuantum uint64
}

// NewServiceTracker returns a tracker for the given core count (plus
// one slot for DMA traffic).
func NewServiceTracker(cores int, cfg ATLASConfig) *ServiceTracker {
	n := cores + 1
	t := &ServiceTracker{
		cfg:         cfg,
		service:     make([]float64, n),
		total:       make([]float64, n),
		rank:        make([]int, n),
		order:       make([]int, n),
		nextQuantum: cfg.QuantumCycles,
	}
	return t
}

// AddService credits service cycles to a core slot.
func (t *ServiceTracker) AddService(slot int, cycles float64) {
	t.service[slot] += cycles
}

// Tick advances the tracker; at quantum boundaries it re-ranks cores
// by smoothed total attained service, least first.
func (t *ServiceTracker) Tick(now uint64) {
	if now < t.nextQuantum {
		return
	}
	t.nextQuantum = now + t.cfg.QuantumCycles
	a := t.cfg.Alpha
	for i := range t.total {
		t.total[i] = a*t.service[i] + (1-a)*t.total[i]
		t.service[i] = 0
	}
	// Rank by total ascending (insertion sort over <=17 slots).
	order := t.order
	for i := range order {
		order[i] = i
	}
	for i := 1; i < len(order); i++ {
		j := order[i]
		k := i - 1
		for k >= 0 && t.total[order[k]] > t.total[j] {
			order[k+1] = order[k]
			k--
		}
		order[k+1] = j
	}
	for r, slot := range order {
		t.rank[slot] = r
	}
}

// NextBoundary returns the cycle at which the next quantum rollover
// fires (the earliest now for which Tick re-ranks).
func (t *ServiceTracker) NextBoundary() uint64 { return t.nextQuantum }

// Rank returns the current rank of a core slot (0 = highest priority).
func (t *ServiceTracker) Rank(slot int) int { return t.rank[slot] }

// Cores returns the number of tracked slots minus the DMA slot.
func (t *ServiceTracker) Cores() int { return len(t.rank) - 1 }

// ATLASPolicy implements Adaptive per-Thread Least-Attained-Service
// scheduling (Kim et al., §2.1). Priority order: over-threshold
// (starving) requests oldest-first, then least-attained-service core
// rank, then row hits, then age.
type ATLASPolicy struct {
	tracker *ServiceTracker
	scan    rankScan
	// byTenant ranks by Request.Tenant instead of Request.Core
	// (multi-tenant systems; the tracker is then sized per tenant).
	byTenant bool
}

// NewATLAS returns an ATLAS policy sharing the given tracker, ranking
// per core (the paper's configuration).
func NewATLAS(cfg ATLASConfig, tracker *ServiceTracker) *ATLASPolicy {
	return &ATLASPolicy{tracker: tracker, scan: newRankScan(cfg.ScanDepth, 2, cfg.StarvationThreshold)}
}

// NewATLASTenants returns an ATLAS policy that accounts and ranks
// attained service per tenant; the tracker must be sized with the
// tenant count.
func NewATLASTenants(cfg ATLASConfig, tracker *ServiceTracker) *ATLASPolicy {
	p := NewATLAS(cfg, tracker)
	p.byTenant = true
	return p
}

// slot maps a request to its service-tracker slot: its tenant in
// tenant mode, its core otherwise; unattributed traffic folds into the
// tracker's extra slot either way.
func (p *ATLASPolicy) slot(r *memctrl.Request) int {
	if p.byTenant {
		return coreSlot(r.Tenant, p.tracker.Cores())
	}
	return coreSlot(r.Core, p.tracker.Cores())
}

// Name implements memctrl.Policy.
func (*ATLASPolicy) Name() string { return "ATLAS" }

// OnEnqueue implements memctrl.Policy.
func (*ATLASPolicy) OnEnqueue(*memctrl.Request, uint64) {}

// OnComplete implements memctrl.Policy.
func (*ATLASPolicy) OnComplete(*memctrl.Request, uint64) {}

// Tick implements memctrl.Policy. Multiple per-channel instances may
// share a tracker; Tick is idempotent within a cycle.
//
//mclint:hotpath
func (p *ATLASPolicy) Tick(now uint64) { p.tracker.Tick(now) }

// NextPolicyEvent implements memctrl.EventHorizon: the quantum
// rollover is clock-driven, so fast-forwarding controllers must wake
// for it even when no memory traffic is pending — otherwise a skipped
// boundary would shift every subsequent quantum and change the
// rankings.
func (p *ATLASPolicy) NextPolicyEvent(now uint64) uint64 {
	return p.tracker.NextBoundary()
}

// OnIssue implements memctrl.Policy: column accesses credit the
// issuing core's attained service with the data-burst occupancy,
// approximating "ATS increases by the number of banks servicing the
// core's requests each cycle".
func (p *ATLASPolicy) OnIssue(v *memctrl.View, picked int, issued dram.Command, _ uint64) {
	if picked < 0 || !issued.Kind.IsColumn() {
		return
	}
	req := v.Options[picked].Req
	p.tracker.AddService(p.slot(req), 1)
}

// Pick implements memctrl.Policy.
//
//mclint:hotpath
func (p *ATLASPolicy) Pick(v *memctrl.View) int {
	return p.scan.pick(v, p.tracker.rank, p.byTenant)
}

// DeclineHorizon implements memctrl.DeclineHorizon: Pick depends on
// the view's options and read queue plus ranks that move only at the
// quantum boundary (NextPolicyEvent), so a declined view changes its
// answer with time alone only through the starvation override.
//
//mclint:hotpath
func (p *ATLASPolicy) DeclineHorizon(v *memctrl.View) uint64 {
	return p.scan.declineHorizon(v)
}

// rankScan is the bounded pick logic ATLAS and QoS share: starving
// requests first, oldest-first; otherwise walk the queued reads in
// (rank, age) order and issue the first legal command found within
// the top depth requests, idling when none of them has one.
type rankScan struct {
	depth      int
	starvation uint64
	// top is the selection scratch of one Pick: the best keys seen so
	// far, ascending, at most depth of them. It holds ReadQueue
	// indices, never request pointers, so nothing outlives the View.
	top []rankKey
}

// rankKey places one queued read in (rank, age) order.
type rankKey struct {
	rank int
	id   uint64
	// idx is the request's index in View.ReadQueue.
	idx int
}

// before reports whether a precedes b: lower rank first, then older.
func (a rankKey) before(b rankKey) bool {
	if a.rank != b.rank {
		return a.rank < b.rank
	}
	return a.id < b.id
}

// newRankScan returns a scan of the given depth (defaultDepth when
// depth <= 0). The selection buffer is preallocated; depths beyond 64
// grow it on first use, up to the deepest read queue seen.
func newRankScan(depth, defaultDepth int, starvation uint64) rankScan {
	if depth <= 0 {
		depth = defaultDepth
	}
	return rankScan{depth: depth, starvation: starvation, top: make([]rankKey, 0, min(depth, 64))}
}

// pick chooses an option under the ranks of the requesters' slots
// (ranks[len(ranks)-1] is the slot of unattributed traffic), keyed by
// Request.Tenant when byTenant and by Request.Core otherwise.
func (s *rankScan) pick(v *memctrl.View, ranks []int, byTenant bool) int {
	if v.WriteMode {
		return pickFRFCFS(v)
	}
	// Starvation override: any request older than the threshold is
	// served oldest-first.
	best := -1
	for i := range v.Options {
		opt := &v.Options[i]
		if opt.Req.Age(v.Now) < s.starvation {
			continue
		}
		if best == -1 || opt.Req.ID < v.Options[best].Req.ID {
			best = i
		}
	}
	if best >= 0 {
		return best
	}

	// One pass over the read queue keeps the top depth keys in an
	// insertion-sorted buffer; each key is computed once.
	slots := len(ranks) - 1
	top := s.top[:0]
	for i, r := range v.ReadQueue {
		who := r.Core
		if byTenant {
			who = r.Tenant
		}
		k := rankKey{rank: ranks[coreSlot(who, slots)], id: r.ID, idx: i}
		switch {
		case len(top) < s.depth:
			top = append(top, k)
		case k.before(top[len(top)-1]):
			top[len(top)-1] = k
		default:
			continue
		}
		for j := len(top) - 1; j > 0 && top[j].before(top[j-1]); j-- {
			top[j], top[j-1] = top[j-1], top[j]
		}
	}
	s.top = top

	// The option serving the best-placed selected request wins; among
	// options serving the same request, the first does.
	best, bestPos := -1, len(top)
	for i := range v.Options {
		req := v.Options[i].Req
		for pos := 0; pos < bestPos; pos++ {
			if v.ReadQueue[top[pos].idx] == req {
				best, bestPos = i, pos
				break
			}
		}
	}
	return best
}

// declineHorizon returns the first cycle after v.Now at which pick
// could serve an option of v it declines at v.Now: the earliest cycle
// an offered request reaches the starvation threshold. In write mode
// pick defers to FR-FCFS, which never declines, so time changes
// nothing.
func (s *rankScan) declineHorizon(v *memctrl.View) uint64 {
	h := uint64(dram.Never)
	if v.WriteMode {
		return h
	}
	for i := range v.Options {
		arr := v.Options[i].Req.Arrival
		if at := arr + s.starvation; at >= arr && at < h {
			h = at
		}
	}
	return h
}

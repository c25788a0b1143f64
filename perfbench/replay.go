package main

import (
	"fmt"
	"time"

	"cloudmc/internal/cache"
	"cloudmc/internal/core"
	"cloudmc/internal/dram"
	"cloudmc/internal/memctrl"
	"cloudmc/internal/pagepolicy"
	"cloudmc/internal/sched"
	"cloudmc/internal/workload"
)

// Layer replays time one public call of a single layer in isolation,
// driven by inputs taken from the workload's first cell.
const (
	replayReps   = 5       // repetitions; each replay reports its median
	replayOps    = 1 << 20 // generator calls per repetition
	tickReplayTo = 60_000  // cycles of captured channel-0 requests fed to the standalone controller
)

// firstProfile is the profile of a cell's first tenant (the solo
// profile for single-tenant cells), resized to its core allocation.
func firstProfile(cfg core.Config) workload.Profile {
	if len(cfg.Tenants) > 0 {
		return cfg.Tenants[0].Adjusted()
	}
	return cfg.Profile
}

// totalCores is the number of cores a cell simulates.
func totalCores(cfg core.Config) int {
	if len(cfg.Tenants) == 0 {
		return cfg.Profile.Cores
	}
	n := 0
	for _, sp := range cfg.Tenants {
		n += sp.CoreCount()
	}
	return n
}

// timeReps runs fn replayReps times and returns the median of the
// per-call times it reports.
func timeReps(fn func() float64) float64 {
	var xs []float64
	for i := 0; i < replayReps; i++ {
		xs = append(xs, fn())
	}
	return median(xs)
}

// nextReplay times workload.Generator.Next, in ns per call, and returns
// the op stream it generated.
func nextReplay(cfg core.Config) (float64, []workload.Op) {
	p := firstProfile(cfg)
	ops := make([]workload.Op, replayOps)
	ns := timeReps(func() float64 {
		gen := workload.NewGenerator(p, workload.NewLayout(p), 0, cfg.Seed)
		t := time.Now()
		for i := range ops {
			ops[i] = gen.Next()
		}
		return float64(time.Since(t).Nanoseconds()) / float64(len(ops))
	})
	return ns, ops
}

// accessReplay times Cache.Access plus Install on a miss, in ns per
// memory op, replaying ops through fresh Table-2 L1 and L2 caches.
func accessReplay(cfg core.Config, ops []workload.Op) float64 {
	mem := ops[:0:0]
	for _, op := range ops {
		if op.Kind != workload.OpNonMem {
			mem = append(mem, op)
		}
	}
	if len(mem) == 0 {
		return 0
	}
	mask := ^(uint64(cfg.L1.BlockBytes) - 1)
	return timeReps(func() float64 {
		l1, l2 := cache.New(cfg.L1), cache.New(cfg.L2)
		t := time.Now()
		for _, op := range mem {
			addr, write := op.Addr&mask, op.Kind == workload.OpStore
			if l1.Access(addr, write) {
				continue
			}
			if !l2.Access(addr, false) {
				l2.Install(addr, false)
			}
			l1.Install(addr, write)
		}
		return float64(time.Since(t).Nanoseconds()) / float64(len(mem))
	})
}

// newStandaloneController builds channel 0's controller of cfg the way
// core.NewSystem does: same queues, scheduler options and page policy.
func newStandaloneController(cfg core.Config) (*memctrl.Controller, error) {
	opts := cfg.SchedOpts
	opts.Cores = totalCores(cfg)
	opts.Seed = cfg.Seed
	if len(cfg.Tenants) > 0 {
		opts.Tenants = len(cfg.Tenants)
	}
	var page pagepolicy.Policy = pagepolicy.NewOpen()
	if cfg.Scheduler != sched.RL {
		p, ok := pagepolicy.ByName(cfg.PagePolicy)
		if !ok {
			return nil, fmt.Errorf("unknown page policy %q", cfg.PagePolicy)
		}
		page = p
	}
	geo := cfg.Geometry.WithChannels(cfg.Channels)
	ch := dram.NewChannel(0, geo, cfg.BusTiming.ScaleFrom(cfg.ClockNum, cfg.ClockDen))
	ctl, err := memctrl.New(cfg.MC, ch, sched.NewFactoryOpts(cfg.Scheduler, opts)(0), page)
	if err != nil {
		return nil, err
	}
	ctl.SetFastForward(cfg.FastForward)
	if len(cfg.Tenants) > 0 {
		ctl.TrackTenants(len(cfg.Tenants))
	}
	return ctl, nil
}

// tickReplay times Controller.Tick, in ns per call, on a standalone
// controller fed the channel-0 column requests of a captured command
// trace at their recorded cycles. Only the Tick calls are timed: the
// clock is read around each run of ticks between two arrivals.
func tickReplay(cfg core.Config, cmds []tracedCmd) (float64, error) {
	var reqs []tracedCmd
	for _, c := range cmds {
		if c.cmd.Loc.Channel == 0 && c.cmd.Kind.IsColumn() && c.at < tickReplayTo {
			reqs = append(reqs, c)
		}
	}
	if len(reqs) == 0 {
		return 0, fmt.Errorf("no channel-0 column commands captured")
	}
	cores := totalCores(cfg)
	var failure error
	ns := timeReps(func() float64 {
		ctl, err := newStandaloneController(cfg)
		if err != nil {
			failure = err
			return 0
		}
		var busy time.Duration
		end := reqs[len(reqs)-1].at + 10_000 // let the queues drain
		next := 0
		for now := reqs[0].at; now < end; {
			for next < len(reqs) && reqs[next].at <= now {
				r := reqs[next]
				src := memctrl.Source{Core: next % cores, Tenant: max(r.tenant, 0)}
				addr := uint64(next) << 6 // distinct blocks: no forwarding or coalescing
				var ok bool
				if r.cmd.Kind == dram.CmdWrite {
					ok = ctl.EnqueueWrite(now, src, addr, r.cmd.Loc, nil)
				} else {
					ok = ctl.EnqueueRead(now, src, addr, r.cmd.Loc, memctrl.ReadDemand, nil)
				}
				if !ok {
					break // queue full: retry after the next tick
				}
				next++
			}
			stop := end
			if next < len(reqs) {
				stop = max(now+1, reqs[next].at)
			}
			t := time.Now()
			for ; now < stop; now++ {
				ctl.Tick(now)
			}
			busy += time.Since(t)
		}
		return float64(busy.Nanoseconds()) / float64(end-reqs[0].at) // one Tick per cycle
	})
	return ns, failure
}

// issueReplay times Channel.CanIssue plus Issue, in ns per command,
// replaying a captured command trace on fresh channels at the recorded
// cycles, and counts the commands that were not legal when recorded.
func issueReplay(cfg core.Config, cmds []tracedCmd) (ns float64, illegal int) {
	geo := cfg.Geometry.WithChannels(cfg.Channels)
	tim := cfg.BusTiming.ScaleFrom(cfg.ClockNum, cfg.ClockDen)
	illegal = -1
	ns = timeReps(func() float64 {
		chans := make([]*dram.Channel, geo.Channels)
		for i := range chans {
			chans[i] = dram.NewChannel(i, geo, tim)
		}
		bad := 0
		t := time.Now()
		for _, c := range cmds {
			ch := c.cmd.Loc.Channel
			if ch < 0 || ch >= len(chans) || !chans[ch].CanIssue(c.at, c.cmd) {
				bad++
				continue
			}
			chans[ch].Issue(c.at, c.cmd)
		}
		d := time.Since(t)
		if illegal < 0 {
			illegal = bad
		}
		return float64(d.Nanoseconds()) / float64(len(cmds))
	})
	return ns, illegal
}

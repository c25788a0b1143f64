package core

import "cloudmc/internal/cpu"

// This file is the event-kernel execution mode of the System, the
// production loop: it steps every cycle but only touches components
// that are due. The produced Metrics are bit-identical to the naive
// per-cycle loop (stepNaive, the reference oracle); kernel_test.go and
// the fast-forward equivalence suite enforce it.
//
// Two dense wake-time arrays, one entry per core and one per channel
// controller, decide who is due. The rule is the same for both: an
// entry <= now ticks this cycle, a later one means the tick would
// provably be a no-op.
//
//   - coreWake: a finite future value is a timed stall, and Never means
//     blocked on the memory system until a fill or store drain calls
//     wakeCore. Waking settles the blocked window's stall statistics in
//     bulk with cpu.Core.Advance, so counters stay bit-identical to
//     per-cycle ticking.
//   - ctrlWake: a controller parks at memctrl.Controller.NextEvent
//     after a tick that issued nothing (no legal option, or a policy
//     that declined every legal one). An enqueue into a parked
//     controller re-reads NextEvent (notifyCtrl), which either wakes it
//     this cycle or moves its wake-up earlier.
//
// The fill queue, IO agents and writeback/DMA retry queues are checked
// every stepped cycle, exactly like the per-cycle loop. The clock never
// jumps: cloud workloads keep some core busy almost every cycle, so
// skipping whole cycles saved nothing measurable.

// kernelState holds the event-kernel bookkeeping; embedded in System
// and initialised only when the kernel mode is selected.
type kernelState struct {
	// coreWake is the per-core wake time: <= now runnable, finite
	// future = timed stall, Never = blocked until wakeCore. For a
	// blocked core, coreIdleFrom records where its idle window began so
	// the skipped stall statistics can be applied in bulk.
	coreWake     []uint64
	coreIdleFrom []uint64

	// ctrlWake is the per-controller wake time: <= now runnable, later
	// = parked at that controller's NextEvent.
	ctrlWake []uint64
}

// kernelOn reports whether this System executes on the event kernel.
func (s *System) kernelOn() bool { return s.ctrlWake != nil }

// initKernel sizes the wake-time arrays. Everything starts runnable;
// the first stepped cycles park whatever is quiescent.
func (s *System) initKernel() {
	s.coreWake = make([]uint64, len(s.cores))
	s.coreIdleFrom = make([]uint64, len(s.cores))
	s.ctrlWake = make([]uint64, len(s.ctrls))
}

// wakeCore makes a blocked core runnable at cycle now, first applying
// the skipped idle window's stall statistics in bulk (bit-identical to
// the per-cycle ticks, per the cpu.Core.Advance contract). Callers
// must wake a core before delivering the fill or drain that ends its
// wait. No-op for cores that are not blocked (a fill arriving during a
// timed stall changes nothing until the stall ends, exactly like the
// per-cycle loop) or when the kernel is off.
func (s *System) wakeCore(i int, now uint64) {
	if s.coreWake == nil || s.coreWake[i] != cpu.Never {
		return
	}
	s.cores[i].Advance(s.coreIdleFrom[i], now)
	s.coreWake[i] = now
}

// settleCores applies the stall statistics of every blocked core's
// idle window up to the current cycle. Advance calls it before
// returning so Metrics reads (and the warmup-boundary stats reset)
// always see fully settled counters; the windows are additive, so
// settling early never changes the totals.
func (s *System) settleCores() {
	for i, w := range s.coreWake {
		if w == cpu.Never {
			s.cores[i].Advance(s.coreIdleFrom[i], s.cycle)
			s.coreIdleFrom[i] = s.cycle
		}
	}
}

// notifyCtrl re-reads a parked controller's horizon after the System
// pushed work into it at cycle now. Wake-ups are bank-granular: an
// enqueue whose command cannot issue yet only lowers the controller's
// horizon to that one bank's earliest-issue cycle
// (memctrl.Controller.noteEnqueue), so the controller usually stays
// parked, just with an earlier wake-up. A mode change, a pending
// page-policy close or a decline park resets the horizon to "unknown",
// and NextEvent then reports the controller due this cycle.
func (s *System) notifyCtrl(ch int, now uint64) {
	if s.ctrlWake == nil || s.ctrlWake[ch] <= now {
		return
	}
	s.ctrlWake[ch] = s.ctrls[ch].NextEvent(now)
}

// stepKernel advances the system one cycle in the per-cycle loop's
// phase order (fills, IO injection, writeback drain, cores,
// controllers), skipping cores and controllers whose wake time lies
// in the future.
func (s *System) stepKernel() {
	now := s.cycle
	if len(s.fillq) > 0 && s.fillq[0].at <= now {
		s.deliverFills(now)
	}
	if len(s.ios) > 0 || len(s.ioq) > 0 {
		s.tickIO(now)
	}
	if len(s.wbq) > 0 {
		s.drainWritebacks(now)
	}
	for i, w := range s.coreWake {
		if w > now {
			continue
		}
		c := s.cores[i]
		c.Tick(now, s)
		if w := c.NextEvent(now + 1); w > now+1 {
			s.coreWake[i] = w
			if w == cpu.Never {
				s.coreIdleFrom[i] = now + 1
			}
		}
	}
	for i, w := range s.ctrlWake {
		if w > now {
			continue
		}
		ctl := s.ctrls[i]
		ctl.Tick(now)
		s.ctrlWake[i] = ctl.NextEvent(now + 1)
	}
	s.cycle++
}

// advanceKernel runs the event-kernel loop to cycle end, then settles
// the blocked cores' stall counters.
func (s *System) advanceKernel(end uint64) {
	for s.cycle < end {
		s.stepKernel()
	}
	s.settleCores()
}

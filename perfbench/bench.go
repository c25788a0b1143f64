package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

// bench is one benchmark run: a workload, its seed and the host-time
// budget of its timed passes.
type bench struct {
	w       workloadDef
	seed    uint64
	budget  time.Duration
	fidSeed uint64
}

// maxChunks pre-sizes the ns/cycle sample slice so that appending to it
// inside a timed window never allocates in practice.
const maxChunks = 1 << 16

// passTime is what one pass took: process CPU time (the cost the
// metrics report) and wall-clock time (what the time budget counts).
type passTime struct{ cpu, wall time.Duration }

// runPass runs one pass after a full GC, converting a panic on this
// goroutine into an error.
func (b *bench) runPass(pr *passRun) (t passTime, err error) {
	runtime.GC()
	var ru syscall.Rusage
	c0, w0 := cpuTime(&ru), time.Now()
	defer func() {
		t = passTime{cpu: cpuTime(&ru) - c0, wall: time.Since(w0)}
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return passTime{}, b.w.pass(pr)
}

// cpuTime returns the CPU time the process has used, user plus system,
// over all threads. Unlike the wall clock it excludes the time a
// hypervisor lets other guests run on this machine's virtual CPUs.
func cpuTime(ru *syscall.Rusage) time.Duration {
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid buffer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// spent reports whether the wall-clock budget is used up: another pass
// as long as the last one would end more than half a pass past it.
func (b *bench) spent(start time.Time, last passTime) bool {
	return time.Since(start)+last.wall/2 >= b.budget
}

// recordPass counts a pass's cells as attempted operations and checks
// that it succeeded and reproduced the first pass's digest.
func (b *bench) recordPass(res *result, i int, pr, first *passRun, err error) {
	res.attempted += max(pr.cells, 1)
	switch {
	case err != nil:
		res.failed++
		res.note("FAIL pass %d: %v", i+1, err)
	case first != nil && pr.sum() != first.sum():
		res.failed++
		res.note("FAIL pass %d: digest %s differs from pass 1's %s", i+1, pr.sum(), first.sum())
	}
}

// endToEnd measures the end-to-end metrics: untraced passes for the
// time budget, then the output checks outside any timed region.
func (b *bench) endToEnd() result {
	var res result
	chunks := make([]float64, 0, maxChunks)
	var cpus, setups []float64
	var allocs, measured uint64
	var first *passRun
	start := time.Now()
	for i := 0; ; i++ {
		pr := newPassRun(b.seed, b.w.chunk, &chunks)
		t, err := b.runPass(pr)
		b.recordPass(&res, i, pr, first, err)
		if first == nil {
			first = pr
		}
		cpus = append(cpus, t.cpu.Seconds())
		setups = append(setups, (pr.newSys + pr.warm).Seconds())
		allocs += pr.allocs
		measured += pr.measureCycles
		if b.spent(start, t) {
			break
		}
	}
	rss := peakRSSMB()

	for i, cfg := range b.w.checkCells(b.seed) {
		res.check(fmt.Sprintf("kernel = naive loop, check cell %d", i+1), checkKernel(cfg))
	}
	res.check("ns/cycle tail samples", tailCheck(len(chunks), 90))
	fid, err := b.fidelity(first)
	res.check(fmt.Sprintf("fidelity grid at seed %d", b.fidSeed), err)

	res.note("workload %s seed %d: %d passes of %d cells; %d ns/cycle samples over %d-cycle chunks (%d beyond p90)",
		b.w.name, b.seed, len(cpus), first.cells, len(chunks), b.w.chunk, len(chunks)-rank(len(chunks), 90))
	res.note("pass CPU times (s): %.3f", cpus)
	res.note("digest %s seed %d: %s  (fid_* from the quick grid at seed %d: %.17g %.17g %.17g)",
		b.w.name, b.seed, first.sum(), b.fidSeed, fid.rowHitErrPP, fid.singleAccessErrPP, fid.atlasSCOLatErr)
	res.set("cpu_s", median(cpus), "s")
	res.set("setup_s", median(setups), "s")
	res.set("ns_per_cycle_p50", percentile(chunks, 50), "ns")
	res.set("ns_per_cycle_p90", percentile(chunks, 90), "ns")
	res.set("allocs_per_kcycle", perK(allocs, measured), "1/kcycle")
	res.set("peak_rss_mb", rss, "MB")
	res.set("fid_rowhit_err_pp", fid.rowHitErrPP, "pp")
	res.set("fid_single_access_err_pp", fid.singleAccessErrPP, "pp")
	res.set("fid_atlas_sco_lat_err", fid.atlasSCOLatErr, "ratio")
	return res
}

// fidelity returns the fid_* metrics: from the paper-grid pass's own
// Study when it ran the reference seed, else from a fresh reference
// grid.
func (b *bench) fidelity(first *passRun) (f fidelity, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	if first.study != nil && b.seed == b.fidSeed {
		return fidelityOf(first.study)
	}
	return referenceFidelity(b.fidSeed)
}

// perLayer measures the per-layer metrics: passes alternate untraced
// and traced (CPU profile plus command counting) for the time budget;
// then the layer replays run on the first traced pass's capture.
func (b *bench) perLayer() result {
	var res result
	chunks := make([]float64, 0, maxChunks)
	var plainCPU, tracedCPU, plainWall, newSys, warm []float64
	selfNs := make(map[string]int64)
	var tracedCycles uint64
	var first, firstTraced *passRun
	start := time.Now()
	for i := 0; ; i++ {
		pr := newPassRun(b.seed, b.w.chunk, &chunks)
		traced := i%2 == 1
		var t passTime
		if !traced {
			var err error
			t, err = b.runPass(pr)
			b.recordPass(&res, i, pr, first, err)
			plainCPU = append(plainCPU, t.cpu.Seconds())
			plainWall = append(plainWall, t.wall.Seconds())
			newSys = append(newSys, pr.newSys.Seconds())
			warm = append(warm, pr.warm.Seconds())
		} else {
			pr.traced, pr.capture = true, firstTraced == nil
			var prof bytes.Buffer
			if err := pprof.StartCPUProfile(&prof); err != nil {
				res.check("start CPU profile", err)
				break
			}
			var err error
			t, err = b.runPass(pr)
			pprof.StopCPUProfile()
			b.recordPass(&res, i, pr, first, err)
			tracedCPU = append(tracedCPU, t.cpu.Seconds())
			buckets, perr := leafSelfTime(prof.Bytes())
			res.check(fmt.Sprintf("parse CPU profile of pass %d", i+1), perr)
			for l, ns := range buckets {
				selfNs[l] += ns
			}
			tracedCycles += pr.simCycles
			if firstTraced == nil {
				firstTraced = pr
			}
		}
		if first == nil {
			first = pr
		}
		if i >= 1 && b.spent(start, t) {
			break
		}
	}
	if firstTraced == nil {
		res.note("FAIL no traced pass ran")
		res.failed++
		return res
	}

	for _, l := range append(append([]string(nil), layers...), otherLayer) {
		res.set(l+".self_ns_per_cycle", ratio(float64(selfNs[l]), float64(tracedCycles)), "ns")
	}
	res.set("core.new_system_s", median(newSys), "s")
	res.set("core.functional_warmup_s", median(warm), "s")
	res.set("wall_s", median(plainWall), "s")
	res.set("trace_overhead_pct", 100*(median(tracedCPU)/median(plainCPU)-1), "%")
	firstTraced.counters.report(&res)
	b.replays(&res, firstTraced)
	res.note("workload %s seed %d (traced): %d untraced + %d traced passes of %d cells; profile covers %d simulated cycles",
		b.w.name, b.seed, len(plainCPU), len(tracedCPU), first.cells, tracedCycles)
	res.note("digest %s seed %d: %s", b.w.name, b.seed, first.sum())
	return res
}

// replays runs the four layer replays on a traced pass's capture and
// checks that every replayed DRAM command was legal when recorded.
func (b *bench) replays(res *result, pr *passRun) {
	cfg := pr.capturedConfig
	if cfg == nil || len(pr.captured) == 0 {
		res.check("layer replays", fmt.Errorf("no command trace captured"))
		return
	}
	next, ops := nextReplay(*cfg)
	res.set("workload.next_ns", next, "ns")
	res.set("cache.access_ns", accessReplay(*cfg, ops), "ns")
	tick, err := tickReplay(*cfg, pr.captured)
	res.check("memctrl tick replay", err)
	res.set("memctrl.tick_ns", tick, "ns")
	issue, illegal := issueReplay(*cfg, pr.captured)
	res.set("dram.issue_ns", issue, "ns")
	var legality error
	if illegal != 0 {
		legality = fmt.Errorf("%d of %d recorded commands were illegal at their cycle", illegal, len(pr.captured))
	}
	res.check(fmt.Sprintf("legality of %d replayed DRAM commands", len(pr.captured)), legality)
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}

// summaryJSON renders the final line: correctness, operation counts and
// the metrics. A non-finite metric is reported as a failure.
func summaryJSON(r *result) string {
	for name, m := range r.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.failed++
			r.metrics[name] = metric{Value: 0, Unit: m.Unit}
		}
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, max(r.attempted, 1), r.failed, r.metrics}
	line, err := json.Marshal(out)
	if err != nil {
		panic(err) // every value is finite and every key a string
	}
	return string(line)
}

// rank is the 1-based nearest rank of the q-th percentile among n
// samples.
func rank(n int, q float64) int {
	k := int(math.Ceil(q / 100 * float64(n)))
	return min(max(k, 1), n)
}

// percentile returns the nearest-rank q-th percentile of xs (0 for no
// samples).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), q)-1]
}

// median returns the median of xs, averaging the middle pair for an
// even count (0 for no samples).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailCheck requires at least ten samples beyond the q-th percentile,
// so the reported tail rests on more than a handful of chunks.
func tailCheck(n int, q float64) error {
	if beyond := n - rank(n, q); beyond < 10 {
		return fmt.Errorf("only %d of %d samples lie beyond p%g", beyond, n, q)
	}
	return nil
}

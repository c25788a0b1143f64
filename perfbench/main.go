// Command perfbench is cloudmc's host-time benchmark. It runs one named
// workload serially in this process — one simulation thread, the
// default event kernel — and prints every metric by name with its
// unit, ending with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (host CPU time,
// set-up time, ns per simulated cycle, allocations, peak memory, and
// the model's error against the paper). With --trace 1 a separate run
// of the same workload reports the per-layer breakdown: CPU-profile
// self time bucketed by package, entry-point spans, standalone layer
// replays and exact behaviour counters.
//
// Run it through run.sh, which builds it from the enclosing checkout:
//
//	bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 20 --trace 0
//
// See README.md for the workloads, metrics and how they relate.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the seed used when --seed is absent; heldOutSeed is
// reserved for re-checking claims and is not used while tuning.
const (
	defaultSeed = 1
	heldOutSeed = 7919
)

func main() {
	wl := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", defaultSeed, fmt.Sprintf("workload seed (held-out seed for re-checking claims: %d)", heldOutSeed))
	seconds := flag.Int("seconds", 45, "host seconds of timed passes")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	fidSeed := flag.Uint64("fid-seed", fidelityRefSeed, "seed of the quick-scale scheduler grid the fid_* metrics come from")
	flag.Parse()

	w, ok := workloadByName(*wl)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	b := &bench{w: w, seed: *seed, budget: time.Duration(*seconds) * time.Second, fidSeed: *fidSeed}
	var res result
	if *trace == 0 {
		res = b.endToEnd()
	} else {
		res = b.perLayer()
	}
	res.print(os.Stdout)
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one benchmark run prints: human-readable notes, then
// the JSON summary line.
type result struct {
	notes     []string
	metrics   map[string]metric
	attempted int
	failed    int
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) set(name string, v float64, unit string) {
	if r.metrics == nil {
		r.metrics = make(map[string]metric)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// check counts one checked operation and records a failure note when
// err is non-nil.
func (r *result) check(what string, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.note("FAIL %s: %v", what, err)
	}
}

func (r *result) print(f *os.File) {
	for _, n := range r.notes {
		fmt.Fprintln(f, n)
	}
	names := make([]string, 0, len(r.metrics))
	for k := range r.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := r.metrics[k]
		fmt.Fprintf(f, "  %-34s %14.6g %s\n", k, m.Value, m.Unit)
	}
	if r.attempted > 0 {
		fmt.Fprintf(f, "error_rate %.6g (%d failed of %d attempted)\n",
			float64(r.failed)/float64(r.attempted), r.failed, r.attempted)
	}
	fmt.Fprintln(f, summaryJSON(r))
}

package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"runtime/pprof"
	"testing"
	"time"

	"cloudmc/internal/workload"
)

func TestLayerOf(t *testing.T) {
	cases := map[string]string{
		"cloudmc/internal/memctrl.(*Controller).Tick":                              "memctrl",
		"cloudmc/internal/sched.(*ATLASPolicy).Pick":                               "sched",
		"cloudmc/internal/core.(*System).advanceKernel":                            "core",
		"cloudmc/internal/cache.(*Cache).Access.func1":                             "cache",
		"cloudmc/internal/workload.(*Generator).Next":                              "workload",
		"cloudmc/internal/engine.(*Queue).PopDue":                                  "engine",
		"cloudmc/internal/experiment.(*Study).runAll.func2":                        "experiment",
		"cloudmc/internal/addrmap.(*Mapper).Decode":                                "addrmap",
		"cloudmc/internal/pagepolicy.OpenAdaptive.OnIdle":                          "pagepolicy",
		"cloudmc/internal/dram.(*Channel).CanIssue":                                "dram",
		"cloudmc/internal/cpu.(*Core).Tick":                                        "cpu",
		"cloudmc/internal/engine.pick[go.shape.int]":                               "engine",
		"runtime.mallocgc":                                                         "runtime",
		"runtime/internal/atomic.Load":                                             "runtime",
		"internal/runtime/maps.(*Map).getWithKey":                                  "runtime",
		"cloudmc/internal/stats.(*LatencyHist).Add":                                "other",
		"cloudmc/internal/obs.delta":                                               "other",
		"sort.Float64s":                                                            "other",
		"main.main":                                                                "other",
		"slices.SortFunc[go.shape.[]cloudmc/internal/memctrl.Option,go.shape.int]": "other",
		"syscall.Syscall6":                                                         "other",
	}
	for fn, want := range cases {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// protobuf encoding helpers for synthetic profiles.
func pbVarint(b []byte, num int, v uint64) []byte {
	b = binary.AppendUvarint(b, uint64(num)<<3)
	return binary.AppendUvarint(b, v)
}

func pbBytes(b []byte, num int, data []byte) []byte {
	b = binary.AppendUvarint(b, uint64(num)<<3|2)
	b = binary.AppendUvarint(b, uint64(len(data)))
	return append(b, data...)
}

func pbPacked(b []byte, num int, vs ...uint64) []byte {
	var p []byte
	for _, v := range vs {
		p = binary.AppendUvarint(p, v)
	}
	return pbBytes(b, num, p)
}

// TestLeafSelfTimeSynthetic buckets a hand-built profile: the leaf is
// the first line of the first location (the innermost inlined frame),
// values are read from the cpu/nanoseconds column, a sample with no
// location falls into the other bucket, and set-up samples are dropped.
func TestLeafSelfTimeSynthetic(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"cloudmc/internal/sched.(*FRFCFSPolicy).Pick",
		"cloudmc/internal/memctrl.(*Controller).Tick",
		"runtime.mallocgc", "phase", "setup"}
	var p []byte
	p = pbBytes(p, 1, pbVarint(pbVarint(nil, 1, 1), 2, 2)) // samples/count
	p = pbBytes(p, 1, pbVarint(pbVarint(nil, 1, 3), 2, 4)) // cpu/nanoseconds
	// Location 1: sched Pick inlined into memctrl Tick.
	loc1 := pbVarint(nil, 1, 1)
	loc1 = pbBytes(loc1, 4, pbVarint(nil, 1, 10))
	loc1 = pbBytes(loc1, 4, pbVarint(nil, 1, 11))
	p = pbBytes(p, 4, loc1)
	loc2 := pbBytes(pbVarint(nil, 1, 2), 4, pbVarint(nil, 1, 12))
	p = pbBytes(p, 4, loc2)
	p = pbBytes(p, 5, pbVarint(pbVarint(nil, 1, 10), 2, 5))
	p = pbBytes(p, 5, pbVarint(pbVarint(nil, 1, 11), 2, 6))
	p = pbBytes(p, 5, pbVarint(pbVarint(nil, 1, 12), 2, 7))
	p = pbBytes(p, 2, pbPacked(pbPacked(nil, 1, 1, 2), 2, 3, 30_000_000)) // leaf loc 1
	p = pbBytes(p, 2, pbPacked(pbPacked(nil, 1, 2, 1), 2, 1, 10_000_000)) // leaf loc 2
	p = pbBytes(p, 2, pbPacked(nil, 2, 1, 5_000_000))                     // no location
	// A sample taken during a cell's set-up is left out.
	setup := pbBytes(pbPacked(pbPacked(nil, 1, 2), 2, 1, 99_000_000), 3, pbVarint(pbVarint(nil, 1, 8), 2, 9))
	p = pbBytes(p, 2, setup)
	// An unpacked location id must decode too.
	p = pbBytes(p, 2, pbPacked(pbVarint(nil, 1, 1), 2, 1, 7_000_000))
	for _, s := range strs {
		p = pbBytes(p, 6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p)
	zw.Close()

	got, err := leafSelfTime(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"sched": 37_000_000, "runtime": 10_000_000, "other": 5_000_000}
	if len(got) != len(want) {
		t.Fatalf("buckets = %v, want %v", got, want)
	}
	for l, ns := range want {
		if got[l] != ns {
			t.Errorf("bucket %s = %d, want %d (all: %v)", l, got[l], ns, got)
		}
	}
}

// TestLeafSelfTimeRealProfile profiles a loop over Generator.Next with
// runtime/pprof and checks the decoder attributes its samples to the
// workload layer and accounts for every sample.
func TestLeafSelfTimeRealProfile(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	p := workload.DataServing()
	gen := workload.NewGenerator(p, workload.NewLayout(p), 0, 1)
	var sink uint64
	for end := time.Now().Add(400 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 10_000; i++ {
			sink += gen.Next().Addr
		}
	}
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	buckets, err := leafSelfTime(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, sum int64
	for _, s := range samples {
		total += s.ns
	}
	for _, ns := range buckets {
		sum += ns
	}
	if len(samples) == 0 || sum != total {
		t.Fatalf("%d samples, %d ns total, %d ns bucketed", len(samples), total, sum)
	}
	if buckets["workload"] == 0 {
		t.Errorf("no self time attributed to workload: %v (sink %d)", buckets, sink)
	}
}

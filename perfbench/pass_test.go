package main

import (
	"testing"

	"cloudmc/internal/core"
)

// smallColo is the colo-atlas cell shrunk to two 10k-cycle chunks.
func smallColo() core.Config {
	return shortWindow(coloAtlasConfig(3), 3, 10_000, 20_000)
}

// TestPassReproducesAndReplays runs one cell twice through the pass
// machinery — once untraced, once traced with capture — and checks the
// digests agree, every measure chunk was sampled, and the captured
// commands replay legally through the standalone layer replays.
func TestPassReproducesAndReplays(t *testing.T) {
	chunks := make([]float64, 0, maxChunks)
	plain := newPassRun(3, 10_000, &chunks)
	if err := directPass(plain, "colo", smallColo()); err != nil {
		t.Fatal(err)
	}
	traced := newPassRun(3, 10_000, &chunks)
	traced.traced, traced.capture = true, true
	if err := directPass(traced, "colo", smallColo()); err != nil {
		t.Fatal(err)
	}
	if plain.sum() != traced.sum() {
		t.Errorf("traced digest %s differs from untraced %s", traced.sum(), plain.sum())
	}
	if len(chunks) != 4 || plain.cells != 1 || plain.measureCycles != 20_000 || plain.simCycles != 30_000 {
		t.Errorf("got %d chunks, %d cells, %d measure and %d simulated cycles; want 4, 1, 20000, 30000",
			len(chunks), plain.cells, plain.measureCycles, plain.simCycles)
	}
	if plain.allocs == 0 || plain.newSys <= 0 || plain.warm <= 0 {
		t.Errorf("allocs %d, new-system %v, warmup %v: want all positive", plain.allocs, plain.newSys, plain.warm)
	}
	if traced.counters.cmds == 0 || len(traced.captured) == 0 || traced.capturedConfig == nil {
		t.Fatalf("traced pass counted %d commands and captured %d", traced.counters.cmds, len(traced.captured))
	}
	if _, illegal := issueReplay(*traced.capturedConfig, traced.captured); illegal != 0 {
		t.Errorf("%d of %d captured commands were illegal on replay", illegal, len(traced.captured))
	}
	if ns, err := tickReplay(*traced.capturedConfig, traced.captured); err != nil || ns <= 0 {
		t.Errorf("tick replay: %v ns/tick, err %v", ns, err)
	}
}

func TestCheckKernel(t *testing.T) {
	if err := checkKernel(shortWindow(smallColo(), 3, 2_000, 8_000)); err != nil {
		t.Fatal(err)
	}
}

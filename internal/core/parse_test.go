package core

import (
	"math"
	"testing"

	"cloudmc/internal/cache"
	"cloudmc/internal/workload"
)

// FuzzParseIsolation checks the parser boundary: every input either
// returns an error or parses to an Isolation whose String() parses
// back to the same Isolation.
func FuzzParseIsolation(f *testing.F) {
	for _, iso := range Isolations {
		f.Add(iso.String())
	}
	for _, s := range []string{"", "NONE", "Banks", "ways+banks", "banks+", "banks+ways+banks", "\x00"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		iso, err := ParseIsolation(s)
		if err != nil {
			return
		}
		back, err := ParseIsolation(iso.String())
		if err != nil || back != iso {
			t.Fatalf("ParseIsolation(%q) = %v, but ParseIsolation(%q) = %v, %v", s, iso, iso.String(), back, err)
		}
	})
}

// FuzzConfigNewSystem checks the Config boundary: a fuzzed core count,
// channel count, queue capacities and write-drain watermarks, base
// CPI, MLP limit and cache geometry must either be rejected by
// Config.Validate (and by NewSystem, which validates first) or build a
// System that advances a few hundred cycles without panicking, in
// either loop mode. A non-finite CPI must be rejected. Inputs with
// more than 64 cores or caches beyond a few MB are skipped, so no
// input starts a large run.
func FuzzConfigNewSystem(f *testing.F) {
	d := DefaultConfig(workload.DataServing())
	f.Add(int8(4), int8(1), int16(d.MC.ReadQueueCap), int16(d.MC.WriteQueueCap), int16(d.MC.WriteHi), int16(d.MC.WriteLo),
		int16(d.MSHRCap), int8(d.StoreBufferCap), 2.0, int8(4), int32(d.L1.SizeBytes), int16(d.L1.Ways), int32(d.L2.SizeBytes), int16(d.L2.Ways), int16(d.L1.BlockBytes), true)
	f.Add(int8(64), int8(8), int16(8), int16(8), int16(6), int16(2), int16(1), int8(1), 1.0, int8(1), int32(4096), int16(1), int32(65536), int16(16), int16(64), false)
	f.Add(int8(0), int8(3), int16(-1), int16(0), int16(1), int16(2), int16(0), int8(0), math.NaN(), int8(-1), int32(0), int16(0), int32(-1), int16(-1), int16(48), true)
	f.Add(int8(2), int8(2), int16(1), int16(1), int16(1), int16(0), int16(1), int8(1), math.Inf(1), int8(1), int32(1024), int16(2), int32(8192), int16(4), int16(32), true)
	f.Fuzz(func(t *testing.T, cores, channels int8, readQ, writeQ, writeHi, writeLo, mshr int16, storeBuf int8,
		cpi float64, mlp int8, l1Size int32, l1Ways int16, l2Size int32, l2Ways int16, block int16, ff bool) {
		if cores > 64 || l1Size > 1<<20 || l2Size > 8<<20 {
			return
		}
		p := workload.DataServing()
		p.Cores = int(cores)
		p.BaseCPI = cpi
		p.MLPLimit = int(mlp)
		cfg := DefaultConfig(p)
		cfg.Channels = int(channels)
		cfg.MC.ReadQueueCap = int(readQ)
		cfg.MC.WriteQueueCap = int(writeQ)
		cfg.MC.WriteHi = int(writeHi)
		cfg.MC.WriteLo = int(writeLo)
		cfg.MSHRCap = int(mshr)
		cfg.StoreBufferCap = int(storeBuf)
		cfg.L1 = cache.Config{SizeBytes: int(l1Size), Ways: int(l1Ways), BlockBytes: int(block)}
		cfg.L2 = cache.Config{SizeBytes: int(l2Size), Ways: int(l2Ways), BlockBytes: int(block)}
		cfg.WarmupCycles = 100
		cfg.MeasureCycles = 200
		cfg.FastForward = ff
		verr := cfg.Validate()
		sys, err := NewSystem(cfg)
		if verr != nil {
			if err == nil {
				t.Fatalf("Validate rejected the config (%v) but NewSystem accepted it", verr)
			}
			return
		}
		if err != nil {
			return
		}
		if math.IsNaN(cpi) || math.IsInf(cpi, 0) {
			t.Fatalf("non-finite BaseCPI %v accepted", cpi)
		}
		sys.Advance(300)
	})
}

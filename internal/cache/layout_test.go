package cache

import (
	"reflect"
	"testing"

	"cloudmc/internal/dram"
)

// TestPackedTagRoundTrip fills one set, then evicts a line whose
// address is the largest one the default DRAM geometry (and, for good
// measure, a 64-bit address space) can produce, under the default L1
// and L2 geometries and the smallest geometry Validate admits. The
// victim's address and its dirty and valid bits must survive the
// tag word's packing.
func TestPackedTagRoundTrip(t *testing.T) {
	geoms := []Config{
		{SizeBytes: 32 << 10, Ways: 2, BlockBytes: 64},
		{SizeBytes: 4 << 20, Ways: 16, BlockBytes: 64},
		{SizeBytes: 8, Ways: 2, BlockBytes: 4},
	}
	for _, cfg := range geoms {
		span := uint64(cfg.BlockBytes * cfg.Sets())
		block := ^uint64(cfg.BlockBytes - 1)
		for _, top := range []uint64{dram.DefaultGeometry().TotalBytes() - 1, ^uint64(0)} {
			addr := top & block
			for _, dirty := range []bool{false, true} {
				c := New(cfg)
				c.Install(addr, dirty)
				if !c.Contains(addr) || c.IsDirty(addr) != dirty {
					t.Fatalf("%+v: %#x dirty=%v not resident as installed", cfg, addr, dirty)
				}
				// Same set, other tags: the oldest line, addr, goes first.
				var v Victim
				for w := 1; !v.Valid; w++ {
					v = c.Install(addr-uint64(w)*span, false)
				}
				if v.Addr != addr || v.Dirty != dirty {
					t.Fatalf("%+v: victim %+v, want addr %#x dirty %v", cfg, v, addr, dirty)
				}
			}
		}
	}
}

// TestValidateRejectsTagOverflow: below four bytes of block*sets, a
// tag could reach the flag bits.
func TestValidateRejectsTagOverflow(t *testing.T) {
	if err := (Config{SizeBytes: 2, Ways: 1, BlockBytes: 2}).Validate(); err == nil {
		t.Fatal("2-byte single-set cache accepted")
	}
	if err := (Config{SizeBytes: 4, Ways: 1, BlockBytes: 4}).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCopyFromIdentical(t *testing.T) {
	cfg := Config{SizeBytes: 8 << 10, Ways: 4, BlockBytes: 64}
	src := New(cfg)
	x := uint64(0x9e3779b97f4a7c15)
	step := func(c *Cache, i int) Victim {
		addr := (x * uint64(i+1)) >> 40 << 6
		switch i % 4 {
		case 0:
			c.Access(addr, true)
		case 1:
			c.Invalidate(addr)
		}
		return c.Install(addr, i%3 == 0)
	}
	for i := 0; i < 5_000; i++ {
		step(src, i)
	}
	dst := New(cfg)
	dst.Install(0x40, true) // content CopyFrom must overwrite
	dst.CopyFrom(src)
	if !reflect.DeepEqual(dst, src) {
		t.Fatal("copy differs from its source")
	}
	// The copy evolves exactly as the source does.
	for i := 5_000; i < 10_000; i++ {
		if a, b := step(src, i), step(dst, i); a != b {
			t.Fatalf("step %d: victims %+v and %+v diverge", i, a, b)
		}
	}
	if !reflect.DeepEqual(dst, src) {
		t.Fatal("copy diverged from its source")
	}
}

func TestCopyFromGeometryMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("CopyFrom across geometries did not panic")
		}
	}()
	New(Config{SizeBytes: 8 << 10, Ways: 4, BlockBytes: 64}).
		CopyFrom(New(Config{SizeBytes: 8 << 10, Ways: 2, BlockBytes: 64}))
}

// Package cache implements set-associative, write-back/write-allocate
// caches with true-LRU replacement, used for the per-core L1s and the
// shared L2 of the simulated pod (paper Table 2).
//
// The cache is a tag array plus replacement state; miss handling
// (MSHRs, fills, writeback routing) lives in the system model
// (package core), which decides *when* blocks are installed.
package cache

import (
	"fmt"
	"math/bits"
)

// Config sizes one cache.
type Config struct {
	// SizeBytes is the total capacity.
	SizeBytes int
	// Ways is the set associativity.
	Ways int
	// BlockBytes is the line size.
	BlockBytes int
}

// Validate reports an error for a non-constructible configuration.
func (c Config) Validate() error {
	pow2 := func(v int) bool { return v > 0 && v&(v-1) == 0 }
	if !pow2(c.BlockBytes) {
		return fmt.Errorf("cache: BlockBytes %d must be a positive power of two", c.BlockBytes)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("cache: Ways %d must be positive", c.Ways)
	}
	if c.SizeBytes <= 0 || c.SizeBytes%(c.BlockBytes*c.Ways) != 0 {
		return fmt.Errorf("cache: SizeBytes %d must be a positive multiple of BlockBytes*Ways", c.SizeBytes)
	}
	sets := c.SizeBytes / (c.BlockBytes * c.Ways)
	if !pow2(sets) {
		return fmt.Errorf("cache: set count %d must be a power of two", sets)
	}
	if c.BlockBytes*sets < 4 {
		return fmt.Errorf("cache: BlockBytes*sets %d must be at least 4 so a tag leaves room for the valid and dirty bits", c.BlockBytes*sets)
	}
	return nil
}

// Sets returns the number of sets.
func (c Config) Sets() int { return c.SizeBytes / (c.BlockBytes * c.Ways) }

// Stats counts cache events.
type Stats struct {
	Hits          uint64
	Misses        uint64
	Evictions     uint64
	DirtyEvicts   uint64
	Installs      uint64
	WriteHits     uint64
	WriteMisses   uint64
	Invalidations uint64
}

// Reset zeroes the counters.
func (s *Stats) Reset() { *s = Stats{} }

// A tag word packs one line's tag with its valid and dirty bits. The
// tag is the address above the block and set bits, so Validate's
// BlockBytes*sets >= 4 keeps it clear of the two flag bits.
const (
	validBit = 1 << 63
	dirtyBit = 1 << 62
)

// Victim describes a block displaced by Install.
type Victim struct {
	// Addr is the block-aligned address of the displaced line.
	Addr uint64
	// Dirty reports the line needed writing back.
	Dirty bool
	// Valid reports whether anything was displaced at all.
	Valid bool
}

// WayShare restricts one owner to the contiguous ways
// [First, First+Count) of every set.
type WayShare struct {
	First int
	Count int
}

// Cache is one set-associative cache.
type Cache struct {
	cfg Config
	// tags and used are parallel sets*ways arrays, set-major. A probe
	// scans only tags, the packed tag words; used holds the LRU stamps
	// (larger = more recent) that hits, installs and victim selection
	// update or compare.
	tags      []uint64
	used      []uint64
	setBits   uint
	blockBits uint
	ways      int
	stamp     uint64
	// parts, when non-nil, way-partitions the cache: InstallFor
	// restricts victim selection to the owner's ways. Lookups still
	// search the whole set (hits are allowed anywhere; ownership is
	// enforced at fill time, as hardware way-partitioning does).
	parts []WayShare
	Stats Stats
}

// New builds a cache; it panics on an invalid configuration (cache
// geometry is fixed by the study configuration, so this is a
// programming error, not an input error).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := cfg.Sets()
	return &Cache{
		cfg:       cfg,
		tags:      make([]uint64, sets*cfg.Ways),
		used:      make([]uint64, sets*cfg.Ways),
		setBits:   uint(bits.TrailingZeros(uint(sets))),
		blockBits: uint(bits.TrailingZeros(uint(cfg.BlockBytes))),
		ways:      cfg.Ways,
	}
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// BlockAlign masks addr down to its block base.
func (c *Cache) BlockAlign(addr uint64) uint64 {
	return addr &^ (uint64(c.cfg.BlockBytes) - 1)
}

func (c *Cache) index(addr uint64) (set int, tag uint64) {
	a := addr >> c.blockBits
	return int(a & ((1 << c.setBits) - 1)), a >> c.setBits
}

// find returns the flat index of addr's line, or -1 when absent, with
// addr's set and tag.
func (c *Cache) find(addr uint64) (at, set int, tag uint64) {
	set, tag = c.index(addr)
	base := set * c.ways
	want := tag | validBit
	for i, t := range c.tags[base : base+c.ways] {
		if t&^dirtyBit == want {
			return base + i, set, tag
		}
	}
	return -1, set, tag
}

// Access looks up addr, updating LRU state on a hit. For write
// accesses a hit marks the line dirty. It returns whether the access
// hit.
func (c *Cache) Access(addr uint64, write bool) bool {
	if at, _, _ := c.find(addr); at >= 0 {
		c.stamp++
		c.used[at] = c.stamp
		if write {
			c.tags[at] |= dirtyBit
			c.Stats.WriteHits++
		}
		c.Stats.Hits++
		return true
	}
	c.Stats.Misses++
	if write {
		c.Stats.WriteMisses++
	}
	return false
}

// Contains probes for addr without touching LRU or statistics.
func (c *Cache) Contains(addr uint64) bool {
	at, _, _ := c.find(addr)
	return at >= 0
}

// IsDirty probes whether addr is present and dirty, without side
// effects.
func (c *Cache) IsDirty(addr uint64) bool {
	at, _, _ := c.find(addr)
	return at >= 0 && c.tags[at]&dirtyBit != 0
}

// PartitionWays way-partitions the cache among owners: owner i may
// only fill into ways [shares[i].First, First+Count). Shares must be
// disjoint, non-empty, and within the associativity. Nil clears the
// partition. Install (ownerless) and InstallFor with an out-of-range
// owner keep choosing victims across the whole set.
func (c *Cache) PartitionWays(shares []WayShare) error {
	if shares == nil {
		c.parts = nil
		return nil
	}
	used := make([]bool, c.ways)
	for i, sh := range shares {
		if sh.Count <= 0 || sh.First < 0 || sh.First+sh.Count > c.ways {
			return fmt.Errorf("cache: owner %d way share [%d,%d) outside [0,%d)", i, sh.First, sh.First+sh.Count, c.ways)
		}
		for w := sh.First; w < sh.First+sh.Count; w++ {
			if used[w] {
				return fmt.Errorf("cache: owner %d way share overlaps an earlier owner at way %d", i, w)
			}
			used[w] = true
		}
	}
	c.parts = append([]WayShare(nil), shares...)
	return nil
}

// WayShares returns the active way partition (nil when unpartitioned).
func (c *Cache) WayShares() []WayShare { return c.parts }

// Install inserts addr (block-aligned internally), evicting the LRU
// line of its set if needed, and returns the displaced victim. If the
// block is already present, Install refreshes LRU and ORs in dirty
// without evicting.
func (c *Cache) Install(addr uint64, dirty bool) Victim {
	return c.InstallFor(-1, addr, dirty)
}

// InstallFor is Install with an owner: when the cache is
// way-partitioned and owner names a share, the victim is chosen from
// the owner's ways only, so one owner can never evict another's line.
// Refreshes of already-present blocks are unrestricted (the line
// already lives in its owner's ways).
func (c *Cache) InstallFor(owner int, addr uint64, dirty bool) Victim {
	flags := uint64(validBit)
	if dirty {
		flags |= dirtyBit
	}
	at, set, tag := c.find(addr)
	c.stamp++
	if at >= 0 {
		// Already present: refresh.
		c.used[at] = c.stamp
		c.tags[at] |= flags
		return Victim{}
	}
	c.Stats.Installs++
	base := set * c.ways
	first, limit := base, base+c.ways
	if c.parts != nil && owner >= 0 && owner < len(c.parts) {
		first = base + c.parts[owner].First
		limit = first + c.parts[owner].Count
	}
	victim := first
	for i := first; i < limit; i++ {
		if c.tags[i]&validBit == 0 {
			victim = i
			break
		}
		if c.used[i] < c.used[victim] {
			victim = i
		}
	}
	var out Victim
	if v := c.tags[victim]; v&validBit != 0 {
		out = Victim{
			Addr:  ((v&^(validBit|dirtyBit))<<c.setBits | uint64(set)) << c.blockBits,
			Dirty: v&dirtyBit != 0,
			Valid: true,
		}
		c.Stats.Evictions++
		if out.Dirty {
			c.Stats.DirtyEvicts++
		}
	}
	c.tags[victim] = tag | flags
	c.used[victim] = c.stamp
	return out
}

// Invalidate removes addr if present, returning whether the line was
// dirty.
func (c *Cache) Invalidate(addr uint64) (wasDirty, wasPresent bool) {
	at, _, _ := c.find(addr)
	if at < 0 {
		return false, false
	}
	c.Stats.Invalidations++
	wasDirty = c.tags[at]&dirtyBit != 0
	c.tags[at] = 0
	return wasDirty, true
}

// CopyFrom overwrites c's contents — tags, LRU state and statistics —
// with src's. The way partition is configuration and stays as it is.
// It panics when the geometries differ: callers copy between caches
// built from one Config, so a mismatch is a programming error.
func (c *Cache) CopyFrom(src *Cache) {
	if c.cfg != src.cfg {
		panic(fmt.Sprintf("cache: CopyFrom between geometries %+v and %+v", src.cfg, c.cfg))
	}
	copy(c.tags, src.tags)
	copy(c.used, src.used)
	c.stamp = src.stamp
	c.Stats = src.Stats
}

// Occupancy returns the number of valid lines (for tests and warmup
// diagnostics).
func (c *Cache) Occupancy() int {
	n := 0
	for _, t := range c.tags {
		if t&validBit != 0 {
			n++
		}
	}
	return n
}

// Package cache implements the timed set-associative data cache of the
// simulated processor. It is a tag-only timing model: data lives in guest
// memory; the cache decides how many cycles each access costs. The cache
// is the side channel of the Spectre attacks — speculative loads fill
// lines, and the attacker distinguishes hits from misses with rdcycle.
package cache

import (
	"fmt"
	"math/bits"
)

// Config describes cache geometry and timing.
type Config struct {
	Sets        int    // number of sets (power of two)
	Ways        int    // associativity
	LineSize    uint64 // bytes per line (power of two)
	HitLatency  uint64 // cycles for a hit
	MissPenalty uint64 // extra cycles for a miss (total = HitLatency + MissPenalty)
}

// DefaultConfig returns the standard 16 KiB 4-way cache with 64-byte
// lines, 3-cycle hits and a 20-cycle miss penalty — comfortably above the
// side-channel detection threshold, like the caches in the paper's
// platforms.
func DefaultConfig() Config {
	return Config{Sets: 64, Ways: 4, LineSize: 64, HitLatency: 3, MissPenalty: 20}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 {
		return fmt.Errorf("cache: Sets must be a positive power of two, got %d", c.Sets)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("cache: Ways must be positive, got %d", c.Ways)
	}
	if c.LineSize == 0 || c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("cache: LineSize must be a positive power of two, got %d", c.LineSize)
	}
	return nil
}

// Stats accumulates access counts. Flushes counts invalidated lines:
// FlushLine contributes one per line it actually invalidates, FlushAll
// one per line that was valid when it ran.
type Stats struct {
	Hits    uint64
	Misses  uint64
	Flushes uint64
}

// HitRatePct returns the hit rate as an integer percentage (0..100),
// 0 before the first access — the shape the observability layer's
// cache-hit-rate counter track samples.
func (s Stats) HitRatePct() uint64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return s.Hits * 100 / total
}

type line struct {
	valid bool
	tag   uint64
	lru   uint64 // last-use stamp
}

// Cache is a set-associative LRU cache timing model. The line array is
// one flat slice (set-major), so the timed lookup path — the innermost
// primitive of the whole simulator — is a single bounds-checked slice
// into contiguous memory with no per-set pointer chase and no
// allocation.
type Cache struct {
	cfg   Config
	lines []line // Sets*Ways entries; set s occupies [s*Ways, (s+1)*Ways)
	stamp uint64
	stats Stats

	// lineShift, setShift and setMask split an address into set and
	// tag without dividing: both geometry parameters are validated
	// powers of two.
	lineShift uint8
	setShift  uint8
	setMask   uint64

	// OnFlush, when non-nil, observes every flush operation after it
	// completes: the flushed address (line flushes only — 0 for a full
	// flush), how many lines were actually invalidated, and whether it
	// was a whole-cache flush. Flushes are the attacker's half of the
	// cache side channel, so the observability layer hooks here; the
	// hook stays off the Access hot path entirely.
	OnFlush func(addr uint64, lines int, all bool)
}

// New builds a cache from cfg, rejecting invalid configurations with an
// error (the simulator core never panics; see internal/trap).
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Cache{
		cfg:       cfg,
		lines:     make([]line, cfg.Sets*cfg.Ways),
		lineShift: uint8(bits.TrailingZeros64(cfg.LineSize)),
		setShift:  uint8(bits.TrailingZeros64(uint64(cfg.Sets))),
		setMask:   uint64(cfg.Sets) - 1,
	}, nil
}

// MustNew is New for configurations known valid (tests, benchmarks).
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// HitLatency returns the latency of a hit in cycles.
func (c *Cache) HitLatency() uint64 { return c.cfg.HitLatency }

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

func (c *Cache) index(addr uint64) (set int, tag uint64) {
	lineAddr := addr >> c.lineShift
	return int(lineAddr & c.setMask), lineAddr >> c.setShift
}

// Access models a load or store of the line containing addr (write-
// allocate, so both directions fill). It returns the latency in cycles
// and whether the access hit.
func (c *Cache) Access(addr uint64) (latency uint64, hit bool) {
	c.stamp++
	set, tag := c.index(addr)
	ways := c.lines[set*c.cfg.Ways : (set+1)*c.cfg.Ways]
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			ways[i].lru = c.stamp
			c.stats.Hits++
			return c.cfg.HitLatency, true
		}
	}
	c.stats.Misses++
	victim := 0
	for i := 1; i < len(ways); i++ {
		if !ways[i].valid {
			victim = i
			break
		}
		if ways[i].lru < ways[victim].lru {
			victim = i
		}
	}
	ways[victim] = line{valid: true, tag: tag, lru: c.stamp}
	return c.cfg.HitLatency + c.cfg.MissPenalty, false
}

// Probe reports whether the line containing addr is present, without
// touching LRU state or statistics.
func (c *Cache) Probe(addr uint64) bool {
	set, tag := c.index(addr)
	for _, l := range c.lines[set*c.cfg.Ways : (set+1)*c.cfg.Ways] {
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

// FlushLine invalidates the line containing addr (the cflush instruction).
func (c *Cache) FlushLine(addr uint64) {
	set, tag := c.index(addr)
	ways := c.lines[set*c.cfg.Ways : (set+1)*c.cfg.Ways]
	flushed := 0
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			ways[i] = line{}
			c.stats.Flushes++
			flushed++
		}
	}
	if c.OnFlush != nil {
		c.OnFlush(addr, flushed, false)
	}
}

// FlushAll invalidates every line (the cflushall instruction). Like
// FlushLine, Stats.Flushes counts each line actually invalidated — not
// one per instruction — so the two flush strategies are comparable.
func (c *Cache) FlushAll() {
	flushed := 0
	for i := range c.lines {
		if c.lines[i].valid {
			c.stats.Flushes++
			flushed++
		}
		c.lines[i] = line{}
	}
	if c.OnFlush != nil {
		c.OnFlush(0, flushed, true)
	}
}

// LineSize returns the line size in bytes.
func (c *Cache) LineSize() uint64 { return c.cfg.LineSize }

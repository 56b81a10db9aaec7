package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHitMissLatency(t *testing.T) {
	c := MustNew(DefaultConfig())
	lat, hit := c.Access(0x1000)
	if hit || lat != 23 {
		t.Fatalf("first access: lat=%d hit=%v, want 23 false", lat, hit)
	}
	lat, hit = c.Access(0x1000)
	if !hit || lat != 3 {
		t.Fatalf("second access: lat=%d hit=%v, want 3 true", lat, hit)
	}
	// Same line, different byte.
	if _, hit := c.Access(0x103F); !hit {
		t.Fatal("same-line access should hit")
	}
	// Next line misses.
	if _, hit := c.Access(0x1040); hit {
		t.Fatal("next-line access should miss")
	}
}

func TestFlushLine(t *testing.T) {
	c := MustNew(DefaultConfig())
	c.Access(0x2000)
	if !c.Probe(0x2000) {
		t.Fatal("line should be present")
	}
	c.FlushLine(0x2010) // same line, different offset
	if c.Probe(0x2000) {
		t.Fatal("line should be flushed")
	}
	if _, hit := c.Access(0x2000); hit {
		t.Fatal("flushed line should miss")
	}
}

func TestFlushAll(t *testing.T) {
	c := MustNew(DefaultConfig())
	for i := uint64(0); i < 32; i++ {
		c.Access(i * 64)
	}
	c.FlushAll()
	for i := uint64(0); i < 32; i++ {
		if c.Probe(i * 64) {
			t.Fatalf("line %d survived FlushAll", i)
		}
	}
}

// Flushes counts invalidated lines under both flush strategies: N valid
// lines cost N flush counts whether removed one by one or all at once.
func TestFlushCountsInvalidatedLines(t *testing.T) {
	c := MustNew(DefaultConfig())
	for i := uint64(0); i < 5; i++ {
		c.Access(i * 64)
	}
	c.FlushAll()
	if f := c.Stats().Flushes; f != 5 {
		t.Fatalf("FlushAll over 5 valid lines counted %d flushes, want 5", f)
	}
	// An empty cache has nothing to invalidate.
	c.FlushAll()
	if f := c.Stats().Flushes; f != 5 {
		t.Fatalf("FlushAll on empty cache changed the count to %d", f)
	}
	// FlushLine on an absent line likewise counts nothing.
	c.FlushLine(0)
	if f := c.Stats().Flushes; f != 5 {
		t.Fatalf("FlushLine on absent line changed the count to %d", f)
	}
	// Line-by-line over the same working set matches FlushAll's count.
	for i := uint64(0); i < 5; i++ {
		c.Access(i * 64)
	}
	for i := uint64(0); i < 5; i++ {
		c.FlushLine(i * 64)
	}
	if f := c.Stats().Flushes; f != 10 {
		t.Fatalf("line-by-line flush counted %d total, want 10", f)
	}
}

func TestLRUEviction(t *testing.T) {
	cfg := Config{Sets: 1, Ways: 2, LineSize: 64, HitLatency: 1, MissPenalty: 10}
	c := MustNew(cfg)
	c.Access(0 * 64) // A
	c.Access(1 * 64) // B
	c.Access(0 * 64) // touch A -> B is LRU
	c.Access(2 * 64) // C evicts B
	if !c.Probe(0) {
		t.Fatal("A should survive (recently used)")
	}
	if c.Probe(64) {
		t.Fatal("B should be evicted (LRU)")
	}
	if !c.Probe(128) {
		t.Fatal("C should be present")
	}
}

func TestSetIndexing(t *testing.T) {
	cfg := Config{Sets: 4, Ways: 1, LineSize: 64, HitLatency: 1, MissPenalty: 10}
	c := MustNew(cfg)
	// Addresses in different sets don't evict each other.
	c.Access(0 * 64)
	c.Access(1 * 64)
	c.Access(2 * 64)
	c.Access(3 * 64)
	for i := uint64(0); i < 4; i++ {
		if !c.Probe(i * 64) {
			t.Fatalf("set %d lost its line", i)
		}
	}
	// Same set (stride = Sets*LineSize) with 1 way evicts.
	c.Access(4 * 64)
	if c.Probe(0) {
		t.Fatal("direct-mapped conflict should evict")
	}
}

func TestStats(t *testing.T) {
	c := MustNew(DefaultConfig())
	c.Access(0)
	c.Access(0)
	c.Access(64)
	c.FlushLine(0)
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 2 || s.Flushes != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Sets: 0, Ways: 1, LineSize: 64},
		{Sets: 3, Ways: 1, LineSize: 64},
		{Sets: 4, Ways: 0, LineSize: 64},
		{Sets: 4, Ways: 1, LineSize: 0},
		{Sets: 4, Ways: 1, LineSize: 48},
	}
	for _, cfg := range bad {
		if cfg.Validate() == nil {
			t.Errorf("Validate(%+v) should fail", cfg)
		}
	}
	if DefaultConfig().Validate() != nil {
		t.Error("default config must validate")
	}
}

// Property: immediately after Access(a), Probe(a) is true; and any
// address in the same line probes identically.
func TestAccessThenProbe(t *testing.T) {
	c := MustNew(DefaultConfig())
	f := func(a uint64, off uint8) bool {
		a &= 1<<30 - 1
		c.Access(a)
		line := a &^ (c.LineSize() - 1)
		return c.Probe(a) && c.Probe(line+uint64(off)%c.LineSize())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: the cache never holds more than Ways lines per set.
func TestCapacityInvariant(t *testing.T) {
	cfg := Config{Sets: 8, Ways: 2, LineSize: 64, HitLatency: 1, MissPenalty: 5}
	c := MustNew(cfg)
	r := rand.New(rand.NewSource(5))
	addrs := make([]uint64, 0, 4096)
	for i := 0; i < 4096; i++ {
		a := uint64(r.Intn(1 << 20))
		c.Access(a)
		addrs = append(addrs, a)
	}
	// Count present distinct lines per set.
	perSet := map[int]map[uint64]bool{}
	for _, a := range addrs {
		if c.Probe(a) {
			la := a / cfg.LineSize
			set := int(la % uint64(cfg.Sets))
			if perSet[set] == nil {
				perSet[set] = map[uint64]bool{}
			}
			perSet[set][la] = true
		}
	}
	for set, lines := range perSet {
		if len(lines) > cfg.Ways {
			t.Fatalf("set %d holds %d lines, ways=%d", set, len(lines), cfg.Ways)
		}
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{Sets: 3, Ways: 1, LineSize: 64}); err == nil {
		t.Fatal("New with bad config must return an error")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew with bad config must panic")
		}
	}()
	MustNew(Config{Sets: 3, Ways: 1, LineSize: 64})
}

// The timed lookup is the innermost primitive of the simulator: it must
// never allocate, hit or miss, so the flat line array stays the only
// storage the cache ever touches after New.
func TestAccessZeroAllocs(t *testing.T) {
	c := MustNew(DefaultConfig())
	var addr uint64
	allocs := testing.AllocsPerRun(1000, func() {
		addr += 64
		c.Access(addr) // miss path (fill + possible eviction)
		c.Access(addr) // hit path
		c.Probe(addr)
		c.FlushLine(addr - 4096)
	})
	if allocs != 0 {
		t.Fatalf("cache access path allocates %.1f objects per call, want 0", allocs)
	}
}

func BenchmarkAccess(b *testing.B) {
	c := MustNew(DefaultConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Stride over 4× the cache capacity: a realistic hit/miss mix.
		c.Access(uint64(i%1024) * 64)
	}
}

// The shift/mask index must split every address exactly as division
// and modulo by the geometry would.
func TestIndexMatchesDivMod(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, sets := range []int{1, 2, 64, 1024} {
		for _, lineSize := range []uint64{1, 8, 64, 256} {
			c := MustNew(Config{Sets: sets, Ways: 2, LineSize: lineSize, HitLatency: 1})
			addrs := []uint64{0, 1, lineSize - 1, lineSize, ^uint64(0), 1 << 63}
			for i := 0; i < 1000; i++ {
				addrs = append(addrs, rng.Uint64())
			}
			for _, addr := range addrs {
				lineAddr := addr / lineSize
				wantSet, wantTag := int(lineAddr%uint64(sets)), lineAddr/uint64(sets)
				if set, tag := c.index(addr); set != wantSet || tag != wantTag {
					t.Fatalf("Sets=%d LineSize=%d addr=%#x: index = (%d, %#x), want (%d, %#x)",
						sets, lineSize, addr, set, tag, wantSet, wantTag)
				}
			}
		}
	}
}

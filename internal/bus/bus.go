// Package bus wires the flat guest memory and the timed data cache into
// the memory system seen by both the interpreter and the VLIW core. One
// Bus instance is shared by every execution mode of the machine, so cache
// state (the side channel) persists across interpreted and translated
// code, exactly as on the real processor.
package bus

import (
	"ghostbusters/internal/cache"
	"ghostbusters/internal/guestmem"
)

// Bus is the standard memory system: guest memory behind a data cache.
// Accesses are timed at line granularity of the first byte; the model
// does not split line-crossing accesses (guest code keeps natural
// alignment).
type Bus struct {
	Mem *guestmem.Memory
	DC  *cache.Cache

	// OnStore, when non-nil, observes every successful architectural
	// store (address, size) regardless of which execution mode issued it.
	// The DBT machine hooks its translated-region invalidation here so
	// self-modifying guest code never runs stale translations; the hook
	// must be cheap (it runs on the store hot path).
	OnStore func(addr uint64, size int)

	// OnAccess, when non-nil, is consulted before every architectural
	// load and store; a non-nil error aborts the access with that fault.
	// The DBT machine wires its deterministic fault injector here to
	// model transient cache-lookup failures. Speculative loads bypass
	// the hook: an injected fault there would just be squashed anyway.
	OnAccess func(addr uint64, size int, store bool) error

	// OnLoad, when non-nil, observes every successful architectural
	// load after the cache access. The attack scoreboard counts the
	// probe loop's architectural touches of secret-dependent lines
	// here. Must be cheap: it runs on the load hot path, and the
	// disabled (nil) check is pinned at 0 allocs/op.
	OnLoad func(addr uint64)

	// OnSpecLoad, when non-nil, observes every successful dismissable
	// (speculative) load. The bus cannot know the issuing guest PC or
	// the cycle, so the VLIW core — the only producer of speculative
	// loads — invokes the hook itself with that context; it is
	// declared here because the scoreboard attaches to the machine's
	// memory system, not to the core.
	OnSpecLoad func(pc, addr, cycle uint64)
}

// New builds a Bus over mem with a cache configured by cfg, rejecting
// invalid cache geometry with an error.
func New(mem *guestmem.Memory, cfg cache.Config) (*Bus, error) {
	dc, err := cache.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Bus{Mem: mem, DC: dc}, nil
}

// MustNew is New for configurations known valid (tests, benchmarks).
func MustNew(mem *guestmem.Memory, cfg cache.Config) *Bus {
	b, err := New(mem, cfg)
	if err != nil {
		panic(err)
	}
	return b
}

// Fetch reads an instruction word. Instruction fetch is not timed through
// the data cache (the modelled side channel is the D-cache only).
func (b *Bus) Fetch(addr uint64) (uint32, error) {
	return b.Mem.ReadWord32(addr)
}

// Load performs an architectural load: protection is enforced, the cache
// is filled, and the latency is returned.
func (b *Bus) Load(addr uint64, size int) (uint64, uint64, error) {
	if b.OnAccess != nil {
		if err := b.OnAccess(addr, size, false); err != nil {
			return 0, 0, err
		}
	}
	v, err := b.Mem.Read(addr, size)
	if err != nil {
		return 0, 0, err
	}
	lat, _ := b.DC.Access(addr)
	if b.OnLoad != nil {
		b.OnLoad(addr)
	}
	return v, lat, nil
}

// LoadSpeculative performs a dismissable load (the VLIW ldd/lds opcodes):
// faults are squashed (ok=false, zero value, no cache fill); in-range
// accesses fill the cache even when they target protected data — this is
// the microarchitectural leak of the paper.
func (b *Bus) LoadSpeculative(addr uint64, size int) (val uint64, lat uint64, ok bool) {
	v, ok := b.Mem.ReadSpeculative(addr, size)
	if !ok {
		return 0, 0, false
	}
	lat, _ = b.DC.Access(addr)
	return v, lat, true
}

// Store performs an architectural store (write-allocate).
func (b *Bus) Store(addr uint64, size int, val uint64) (uint64, error) {
	if b.OnAccess != nil {
		if err := b.OnAccess(addr, size, true); err != nil {
			return 0, err
		}
	}
	if err := b.Mem.Write(addr, size, val); err != nil {
		return 0, err
	}
	lat, _ := b.DC.Access(addr)
	if b.OnStore != nil {
		b.OnStore(addr, size)
	}
	return lat, nil
}

// FlushLine invalidates the cache line containing addr.
func (b *Bus) FlushLine(addr uint64) { b.DC.FlushLine(addr) }

// FlushAll invalidates the whole data cache.
func (b *Bus) FlushAll() { b.DC.FlushAll() }

package dbt

import (
	"sync"

	"ghostbusters/internal/vliw"
)

// This file holds the translation-state bookkeeping shared by the
// dispatch loop and the DBT engine: the pooled region maps, region
// installation, and the self-modifying-code invalidation that keeps
// translated code coherent with guest text.

// transState owns the translation-state maps of one machine. The
// harness creates and releases thousands of short-lived machines per
// sweep; pooling keeps the map bucket storage alive across them.
type transState struct {
	branches map[uint64]*brStat
	trans    map[uint64]*transEntry
}

var transPool = sync.Pool{New: func() any {
	return &transState{
		branches: make(map[uint64]*brStat),
		trans:    make(map[uint64]*transEntry),
	}
}}

// entry returns pc's dispatch record, creating it on first use.
func (m *Machine) entry(pc uint64) *transEntry {
	e := m.trans[pc]
	if e == nil {
		e = &transEntry{}
		m.trans[pc] = e
	}
	return e
}

// install publishes a translated region and widens the guest text
// extent the store hook watches.
func (m *Machine) install(pc uint64, e *region) {
	m.entry(pc).rg = e
	// Both fresh translations and persistent-cache installs route
	// through here, so this is the one place to attribute host-side
	// translation latency to the machine.
	m.transHostNS += e.transNS
	if e.lo < m.transLo {
		m.transLo = e.lo
	}
	if e.hi > m.transHi {
		m.transHi = e.hi
	}
}

// blockExtent computes the guest text range [lo, hi) a translated block
// covers, from the guest PCs stamped on its syllables (traces can reach
// below or above their entry).
func blockExtent(blk *vliw.Block) (lo, hi uint64) {
	lo, hi = blk.EntryPC, blk.EntryPC+4
	scan := func(sy *vliw.Syllable) {
		if sy.GuestPC == 0 {
			return
		}
		if sy.GuestPC < lo {
			lo = sy.GuestPC
		}
		if sy.GuestPC+4 > hi {
			hi = sy.GuestPC + 4
		}
	}
	for _, bun := range blk.Bundles {
		for i := range bun {
			scan(&bun[i])
		}
	}
	for _, rec := range blk.Recoveries {
		for i := range rec {
			scan(&rec[i])
		}
	}
	return lo, hi
}

// onGuestStore is the bus store hook: when the store lands inside guest
// text covered by translated code, it drops the overlapping regions —
// stale translated code must never execute.
func (m *Machine) onGuestStore(addr uint64, size int) {
	if m.tcr != nil && addr < m.textHi && addr+uint64(size) > m.textLo {
		// Self-modifying code: the persistent translation cache describes
		// the original image, so stop consulting it and never publish
		// this run's recordings.
		m.tcr = nil
	}
	if addr >= m.transHi || addr+uint64(size) <= m.transLo {
		return
	}
	m.invalidateRange(addr, uint64(size))
}

// invalidateRange drops every translated region overlapping
// [addr, addr+size).
func (m *Machine) invalidateRange(addr, size uint64) {
	end := addr + size
	for _, e := range m.trans {
		if e.rg != nil && e.rg.lo < end && addr < e.rg.hi {
			e.rg = nil
			m.stats.SMCInvalidations++
		}
	}
}

package vliw

import (
	"ghostbusters/internal/bus"
	"ghostbusters/internal/obs"
	"ghostbusters/internal/riscv"
	"ghostbusters/internal/trap"
)

// ExitInfo reports how a translated block finished.
type ExitInfo struct {
	NextPC   uint64
	SideExit bool        // a trace side exit was taken (static misprediction)
	Fault    *trap.Fault // architectural fault, nil otherwise
	FaultPC  uint64      // guest PC of the faulting operation
}

// Stats accumulates dynamic execution counters of the core.
type Stats struct {
	Bundles    uint64
	SideExits  uint64
	Recoveries uint64 // MCB conflicts that ran recovery code
	SpecLoads  uint64 // ldd/lds issued
	SpecSquash uint64 // dismissable loads whose fault was squashed
}

// Core executes translated blocks in order, bundle by bundle, with the
// cycle accounting of an in-order VLIW: one cycle per bundle, the whole
// machine stalls on a cache miss, taken side exits pay a refill penalty,
// and MCB conflicts pay the DBT-generated recovery sequence.
//
// Speculative results carry a poison bit (the NaT-style deferred
// exception of Transmeta-like machines): a dismissable load whose fault
// was squashed poisons its destination; poison propagates through ALU
// operations; any architectural use (store, branch, commit, indirect
// jump, architectural load address) of a poisoned value raises the fault
// at that point — i.e. at the speculated instruction's original program
// position, never on a misspeculated path.
type Core struct {
	Cfg   Config
	MCB   MCB
	Stats Stats

	// Tracer, when non-nil, receives speculation- and exit-level trace
	// events timed in machine cycles (spec-load issue/squash, MCB
	// recovery, side exits). A nil tracer costs one predictable branch
	// per candidate event; the dbt machine wires Config.Tracer here.
	Tracer *obs.Tracer

	// Instret counts guest instructions retired by translated code.
	Instret uint64

	// wb is the bundle write buffer. Predecode gives every register
	// write of a bundle its own slot (see threaded.go), so a result is
	// one indexed store and the bundle's terminator commits slots
	// [0, n). Slot discardSlot absorbs results that never commit (r0
	// writes, the faulting second writer of a register).
	wb [NumRegs]pendingWrite

	// recov lists the recovery sequences the current bundle's chks
	// requested, in check order. It grows to the most conflicting
	// chks one bundle has had and is then reused, so the steady-state
	// execution loop stays allocation-free.
	recov []int16

	// fr is the per-Exec frame the threaded-dispatch handlers operate
	// on (see threaded.go), kept on the core for the same reason.
	fr execFrame
}

// NewCore builds a core, rejecting invalid configurations with an error
// (the simulator core never panics; see internal/trap).
func NewCore(cfg Config) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Core{Cfg: cfg}, nil
}

// MustNewCore is NewCore for configurations known valid (tests).
func MustNewCore(cfg Config) *Core {
	c, err := NewCore(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// pendingWrite is one buffered register write of the current bundle.
type pendingWrite struct {
	val    uint64
	reg    uint8
	poison bool
}

// errPoisonUse is the deferred exception of a squashed speculative load
// delivered at an architectural use of its poisoned result — by
// construction at the speculated instruction's original program
// position, never on a misspeculated path.
func errPoisonUse(sy *Syllable) *trap.Fault {
	f := trap.Newf(trap.DeferredFault, "architectural use of poisoned (squashed speculative) value by %s", sy)
	f.PC = sy.GuestPC
	return f
}

// errInternal flags a violated translator/scheduler invariant.
func errInternal(pc uint64, format string, args ...any) *trap.Fault {
	f := trap.Newf(trap.Internal, format, args...)
	f.PC = pc
	return f
}

// Exec runs one translated block. regs is the persistent physical
// register file (0..31 architectural, 32..63 hidden); b is the shared
// memory system; cycles is the machine cycle counter, advanced in place
// so rdcycle inside the block observes real time.
//
// Dispatch is threaded-code style: the block's predecoded dop table
// (built once, see threaded.go) is walked with one indirect call per
// live operation; bundle boundaries are pseudo-ops carrying the write
// phase, MCB recoveries and the exit decision, chosen per bundle at
// predecode. Semantics and cycle accounting are those of a per-bundle
// interpreter that buffers every write until the bundle ends.
func (c *Core) Exec(blk *Block, regs *[NumRegs]uint64, b *bus.Bus, cycles *uint64) ExitInfo {
	fr := &c.fr
	fr.regs, fr.b, fr.cycles, fr.blk = regs, b, cycles, blk
	fr.hitLat = b.DC.HitLatency()
	fr.poisoned = [NumRegs]bool{}
	fr.exitTaken, fr.haveNext = false, false
	// A faulted earlier run can abandon a bundle after its chks queued
	// recoveries; write slots need no reset (each bundle overwrites the
	// slots it commits).
	c.recov = c.recov[:0]

	// Dispatching any block costs at least one cycle (the dispatch
	// itself), so zero-bundle blocks (pure jumps) cannot loop for free.
	if len(blk.Bundles) == 0 {
		*cycles++
		if n := c.MCB.Outstanding(); n != 0 {
			c.fail(errInternal(0, "vliw: %d MCB entries outstanding at block fallthrough", n), 0)
			return fr.exit
		}
		c.Instret += uint64(blk.GuestInsts)
		return ExitInfo{NextPC: blk.FallPC}
	}

	dec := blk.decoded()
	*cycles++
	c.Stats.Bundles++
	ops := dec.ops
	for i := 0; i < len(ops); i++ {
		d := &ops[i]
		if d.fn(c, d) != ctlNext {
			return fr.exit
		}
	}
	// Unreachable: the final bundle's terminator always stops.
	return fr.exit
}

// execRecovery re-executes a speculative load and its forward slice
// sequentially (one syllable per cycle) with architectural semantics —
// the hardware "rolls back and re-executes the instruction correctly"
// (paper, Section III-B). Dependent speculative loads refresh their MCB
// entries with the corrected address so their own chk still validates.
func (c *Core) execRecovery(seq []Syllable, regs *[NumRegs]uint64, poisoned *[NumRegs]bool, b *bus.Bus, cycles *uint64) *ExitInfo {
	hitLat := b.DC.HitLatency()
	read := func(r uint8) uint64 {
		if r == 0 {
			return 0
		}
		return regs[r]
	}
	write := func(r uint8, v uint64, p bool) {
		if r != 0 {
			regs[r] = v
			poisoned[r] = p
		}
	}
	failf := func(sy *Syllable, err error) *ExitInfo {
		c.MCB.Reset()
		f := trap.From(err)
		if f.PC == 0 {
			f.PC = sy.GuestPC
		}
		return &ExitInfo{Fault: f, FaultPC: sy.GuestPC}
	}
	for i := range seq {
		sy := &seq[i]
		*cycles++
		switch sy.Kind {
		case KAluRR:
			p := (sy.Ra != 0 && poisoned[sy.Ra]) || (sy.Rb != 0 && poisoned[sy.Rb])
			write(sy.Dst, riscv.EvalALU(sy.Op, read(sy.Ra), read(sy.Rb)), p)
		case KAluRI:
			write(sy.Dst, riscv.EvalALUImm(sy.Op, read(sy.Ra), sy.Imm), sy.Ra != 0 && poisoned[sy.Ra])
		case KMovI:
			write(sy.Dst, uint64(sy.Imm), false)
		case KCommit:
			if sy.Ra != 0 && poisoned[sy.Ra] {
				return failf(sy, errPoisonUse(sy))
			}
			write(sy.Dst, read(sy.Ra), false)
		case KLoad:
			if sy.Ra != 0 && poisoned[sy.Ra] {
				return failf(sy, errPoisonUse(sy))
			}
			addr := read(sy.Ra) + uint64(sy.Imm)
			v, lat, err := b.Load(addr, sy.Op.MemSize())
			if err != nil {
				return failf(sy, err)
			}
			if lat > hitLat {
				*cycles += lat - hitLat
			}
			write(sy.Dst, riscv.ExtendLoad(sy.Op, v), false)
		case KLoadD, KLoadS:
			// Still ahead of its own chk: keep dismissable semantics and
			// refresh the MCB entry with the corrected address.
			squashed := sy.Ra != 0 && poisoned[sy.Ra]
			var val, addr uint64
			if !squashed {
				addr = read(sy.Ra) + uint64(sy.Imm)
				v, lat, ok := b.LoadSpeculative(addr, sy.Op.MemSize())
				if ok {
					if lat > hitLat {
						*cycles += lat - hitLat
					}
					val = riscv.ExtendLoad(sy.Op, v)
					if b.OnSpecLoad != nil {
						b.OnSpecLoad(sy.GuestPC, addr, *cycles)
					}
				} else {
					squashed = true
				}
			}
			if sy.Kind == KLoadS {
				if _, _, err := c.MCB.Consume(sy.Tag); err != nil {
					return failf(sy, err)
				}
				if err := c.MCB.Insert(sy.Tag, addr, sy.Op.MemSize(), squashed); err != nil {
					return failf(sy, err)
				}
			}
			write(sy.Dst, val, squashed)
		default:
			return failf(sy, errInternal(sy.GuestPC, "vliw: kind %s not allowed in recovery code", sy.Kind))
		}
	}
	return nil
}

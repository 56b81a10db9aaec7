package riscv

import (
	"math/bits"

	"ghostbusters/internal/trap"
)

// State is the RISC-V architectural state of the guest.
type State struct {
	PC      uint64
	X       [32]uint64
	Instret uint64
}

// Bus is the memory system seen by the interpreter (and by the VLIW core):
// a flat guest memory behind a timed data cache. Load returns the
// zero-extended value plus the access latency in cycles.
type Bus interface {
	Fetch(addr uint64) (uint32, error)
	Load(addr uint64, size int) (val uint64, latency uint64, err error)
	Store(addr uint64, size int, val uint64) (latency uint64, err error)
	FlushLine(addr uint64)
	FlushAll()
}

// EventKind classifies why execution left the normal instruction stream.
type EventKind uint8

const (
	EvNone  EventKind = iota
	EvExit            // ecall: guest requested exit, code in a0
	EvBreak           // ebreak
	EvFault           // illegal instruction or memory fault
)

// Event describes an execution event raised by Step.
type Event struct {
	Kind EventKind
	Code int64  // exit code for EvExit
	Err  error  // fault cause for EvFault
	Addr uint64 // faulting PC
}

// Timing holds the interpreter cost model. A DBT-based processor
// interprets cold code in software, so each interpreted instruction costs
// several cycles of the underlying VLIW core before translation kicks in.
type Timing struct {
	BaseCPI  uint64 // cycles per interpreted instruction (dispatch cost)
	MulExtra uint64 // extra cycles for multiply
	DivExtra uint64 // extra cycles for divide/remainder
}

// DefaultTiming returns the standard interpreter cost model.
func DefaultTiming() Timing {
	return Timing{BaseCPI: 3, MulExtra: 2, DivExtra: 16}
}

// StepResult reports one interpreted instruction.
type StepResult struct {
	Inst   Inst
	Cycles uint64
	Event  Event
	// Branch profiling feedback for the DBT engine.
	IsBranch bool
	Taken    bool
	Target   uint64 // branch/jump destination when taken
}

// fetchFault classifies a failed instruction fetch: control reached an
// address that does not hold executable code (out of range, misaligned,
// or otherwise unreadable), i.e. a branch or jump to an invalid target.
func fetchFault(pc uint64, err error) Event {
	f := trap.Newf(trap.InvalidBranchTarget, "instruction fetch failed: %s", trap.From(err).Detail)
	f.PC = pc
	f.Addr = pc
	return Event{Kind: EvFault, Err: f, Addr: pc}
}

// Step interprets the instruction at st.PC, advancing the state. now is
// the machine cycle counter before this instruction (visible via rdcycle).
func Step(st *State, bus Bus, tm Timing, now uint64) StepResult {
	pc := st.PC
	word, err := bus.Fetch(pc)
	if err != nil {
		return StepResult{Event: fetchFault(pc, err)}
	}
	in := Decode(word)
	res := StepResult{Inst: in, Cycles: tm.BaseCPI}
	if in.Op == OpIllegal {
		f := trap.Newf(trap.IllegalInstruction, "illegal instruction %#08x", in.Raw)
		f.PC = pc
		res.Event = Event{Kind: EvFault, Err: f, Addr: pc}
		return res
	}

	x := func(r uint8) uint64 {
		return st.X[r]
	}
	setX := func(r uint8, v uint64) {
		if r != 0 {
			st.X[r] = v
		}
	}
	nextPC := pc + 4

	switch in.Op {
	case LUI:
		setX(in.Rd, uint64(in.Imm))
	case AUIPC:
		setX(in.Rd, pc+uint64(in.Imm))
	case JAL:
		setX(in.Rd, pc+4)
		nextPC = pc + uint64(in.Imm)
		res.IsBranch, res.Taken, res.Target = true, true, nextPC
	case JALR:
		t := (x(in.Rs1) + uint64(in.Imm)) &^ 1
		setX(in.Rd, pc+4)
		nextPC = t
		res.IsBranch, res.Taken, res.Target = true, true, nextPC

	case BEQ, BNE, BLT, BGE, BLTU, BGEU:
		res.IsBranch = true
		res.Target = pc + uint64(in.Imm)
		if EvalBranch(in.Op, x(in.Rs1), x(in.Rs2)) {
			res.Taken = true
			nextPC = res.Target
		}

	case LB, LH, LW, LD, LBU, LHU, LWU:
		addr := x(in.Rs1) + uint64(in.Imm)
		size := in.Op.MemSize()
		v, lat, err := bus.Load(addr, size)
		res.Cycles += lat
		if err != nil {
			f := trap.From(err)
			f.PC = pc
			res.Event = Event{Kind: EvFault, Err: f, Addr: pc}
			return res
		}
		setX(in.Rd, ExtendLoad(in.Op, v))

	case SB, SH, SW, SD:
		addr := x(in.Rs1) + uint64(in.Imm)
		lat, err := bus.Store(addr, in.Op.MemSize(), x(in.Rs2))
		res.Cycles += lat
		if err != nil {
			f := trap.From(err)
			f.PC = pc
			res.Event = Event{Kind: EvFault, Err: f, Addr: pc}
			return res
		}

	case ADDI, SLTI, SLTIU, XORI, ORI, ANDI, SLLI, SRLI, SRAI, ADDIW, SLLIW, SRLIW, SRAIW:
		setX(in.Rd, EvalALUImm(in.Op, x(in.Rs1), in.Imm))

	case ADD, SUB, SLL, SLT, SLTU, XOR, SRL, SRA, OR, AND, ADDW, SUBW, SLLW, SRLW, SRAW:
		setX(in.Rd, EvalALU(in.Op, x(in.Rs1), x(in.Rs2)))

	case MUL, MULH, MULHSU, MULHU, MULW:
		res.Cycles += tm.MulExtra
		setX(in.Rd, EvalALU(in.Op, x(in.Rs1), x(in.Rs2)))
	case DIV, DIVU, REM, REMU, DIVW, DIVUW, REMW, REMUW:
		res.Cycles += tm.DivExtra
		setX(in.Rd, EvalALU(in.Op, x(in.Rs1), x(in.Rs2)))

	case FENCE:
		// memory ordering: no-op in this in-order model

	case ECALL:
		res.Event = Event{Kind: EvExit, Code: int64(x(10))}
		st.Instret++
		st.PC = nextPC
		return res
	case EBREAK:
		res.Event = Event{Kind: EvBreak}
		st.Instret++
		st.PC = nextPC
		return res

	case CSRRW, CSRRS, CSRRC:
		var v uint64
		switch in.Imm {
		case CSRCycle, CSRTime:
			v = now
		case CSRInstret:
			v = st.Instret
		}
		// cycle/time/instret are read-only; write side is ignored.
		setX(in.Rd, v)

	case CFLUSH:
		bus.FlushLine(x(in.Rs1))
	case CFLUSHALL:
		bus.FlushAll()

	default:
		f := trap.Newf(trap.IllegalInstruction, "unimplemented op %s", in.Op)
		f.PC = pc
		res.Event = Event{Kind: EvFault, Err: f, Addr: pc}
		return res
	}

	st.Instret++
	st.PC = nextPC
	return res
}

// EvalBranch evaluates a conditional branch condition.
func EvalBranch(op Op, a, b uint64) bool {
	switch op {
	case BEQ:
		return a == b
	case BNE:
		return a != b
	case BLT:
		return int64(a) < int64(b)
	case BGE:
		return int64(a) >= int64(b)
	case BLTU:
		return a < b
	case BGEU:
		return a >= b
	}
	return false
}

// ExtendLoad sign- or zero-extends a raw loaded value according to op.
func ExtendLoad(op Op, v uint64) uint64 {
	switch op {
	case LB:
		return uint64(int64(int8(v)))
	case LH:
		return uint64(int64(int16(v)))
	case LW:
		return uint64(int64(int32(v)))
	case LD, LBU, LHU, LWU:
		return v
	}
	return v
}

// EvalALUImm computes a register-immediate ALU operation.
func EvalALUImm(op Op, a uint64, imm int64) uint64 {
	switch op {
	case ADDI:
		return a + uint64(imm)
	case SLTI:
		if int64(a) < imm {
			return 1
		}
		return 0
	case SLTIU:
		if a < uint64(imm) {
			return 1
		}
		return 0
	case XORI:
		return a ^ uint64(imm)
	case ORI:
		return a | uint64(imm)
	case ANDI:
		return a & uint64(imm)
	case SLLI:
		return a << uint(imm&63)
	case SRLI:
		return a >> uint(imm&63)
	case SRAI:
		return uint64(int64(a) >> uint(imm&63))
	case ADDIW:
		return uint64(int64(int32(a + uint64(imm))))
	case SLLIW:
		return uint64(int64(int32(uint32(a) << uint(imm&31))))
	case SRLIW:
		return uint64(int64(int32(uint32(a) >> uint(imm&31))))
	case SRAIW:
		return uint64(int64(int32(a) >> uint(imm&31)))
	}
	return 0
}

// EvalALU computes a register-register ALU or M-extension operation with
// the exact RV64IM semantics (including division edge cases).
func EvalALU(op Op, a, b uint64) uint64 {
	switch op {
	case ADD:
		return a + b
	case SUB:
		return a - b
	case SLL:
		return a << (b & 63)
	case SLT:
		if int64(a) < int64(b) {
			return 1
		}
		return 0
	case SLTU:
		if a < b {
			return 1
		}
		return 0
	case XOR:
		return a ^ b
	case SRL:
		return a >> (b & 63)
	case SRA:
		return uint64(int64(a) >> (b & 63))
	case OR:
		return a | b
	case AND:
		return a & b
	case ADDW:
		return uint64(int64(int32(a + b)))
	case SUBW:
		return uint64(int64(int32(a - b)))
	case SLLW:
		return uint64(int64(int32(uint32(a) << (b & 31))))
	case SRLW:
		return uint64(int64(int32(uint32(a) >> (b & 31))))
	case SRAW:
		return uint64(int64(int32(a) >> (b & 31)))

	case MUL:
		return a * b
	case MULH:
		hi, _ := bits.Mul64(a, b)
		if int64(a) < 0 {
			hi -= b
		}
		if int64(b) < 0 {
			hi -= a
		}
		return hi
	case MULHSU:
		hi, _ := bits.Mul64(a, b)
		if int64(a) < 0 {
			hi -= b
		}
		return hi
	case MULHU:
		hi, _ := bits.Mul64(a, b)
		return hi
	case DIV:
		if b == 0 {
			return ^uint64(0)
		}
		if int64(a) == -1<<63 && int64(b) == -1 {
			return a
		}
		return uint64(int64(a) / int64(b))
	case DIVU:
		if b == 0 {
			return ^uint64(0)
		}
		return a / b
	case REM:
		if b == 0 {
			return a
		}
		if int64(a) == -1<<63 && int64(b) == -1 {
			return 0
		}
		return uint64(int64(a) % int64(b))
	case REMU:
		if b == 0 {
			return a
		}
		return a % b
	case MULW:
		return uint64(int64(int32(a * b)))
	case DIVW:
		x, y := int32(a), int32(b)
		if y == 0 {
			return ^uint64(0)
		}
		if x == -1<<31 && y == -1 {
			return uint64(int64(x))
		}
		return uint64(int64(x / y))
	case DIVUW:
		x, y := uint32(a), uint32(b)
		if y == 0 {
			return ^uint64(0)
		}
		return uint64(int64(int32(x / y)))
	case REMW:
		x, y := int32(a), int32(b)
		if y == 0 {
			return uint64(int64(x))
		}
		if x == -1<<31 && y == -1 {
			return 0
		}
		return uint64(int64(x % y))
	case REMUW:
		x, y := uint32(a), uint32(b)
		if y == 0 {
			return uint64(int64(int32(x)))
		}
		return uint64(int64(int32(x % y)))
	}
	return 0
}

package vliw

import (
	"testing"
	"unsafe"

	"ghostbusters/internal/riscv"
)

// steadyStateBlock is a representative translated block: immediates, ALU
// work, a speculative (MCB) load with its chk, a store and a not-taken
// side exit — the mix a Fig. 4 kernel inner loop compiles to.
func steadyStateBlock(cfg Config) *Block {
	return &Block{
		EntryPC: 0x100,
		FallPC:  0x200,
		Bundles: []Bundle{
			pad(cfg,
				Syllable{Kind: KMovI, Dst: 5, Imm: 0x20000},
				Syllable{Kind: KMovI, Dst: 6, Imm: 3}),
			pad(cfg,
				Syllable{Kind: KLoadS, Op: riscv.LD, Dst: 7, Ra: 5, Tag: 0},
				Syllable{Kind: KAluRI, Op: riscv.ADDI, Dst: 8, Ra: 6, Imm: 4}),
			pad(cfg, Syllable{Kind: KStore, Op: riscv.SD, Ra: 5, Rb: 8, Imm: 64}),
			pad(cfg, Syllable{Kind: KChk, Tag: 0, Rec: -1}),
			pad(cfg, Syllable{Kind: KAluRR, Op: riscv.ADD, Dst: 9, Ra: 7, Rb: 8}),
			pad(cfg, Syllable{Kind: KBrExit, Op: riscv.BEQ, Ra: 9, Rb: 0, Imm: 0x300}),
		},
		GuestInsts: 7,
	}
}

// wideBlock has 8-wide bundles: seven writes in one bundle and two
// chks that both request recovery, so the recovery list grows past what
// steadyStateBlock needs.
func wideBlock() *Block {
	cfg := WideConfig()
	movs := make([]Syllable, 7)
	for i := range movs {
		movs[i] = Syllable{Kind: KMovI, Dst: uint8(10 + i), Imm: int64(i)}
	}
	return &Block{
		EntryPC: 0x400,
		FallPC:  0x500,
		Bundles: []Bundle{
			pad(cfg, append(movs, Syllable{Kind: KMovI, Dst: 5, Imm: 0x20000})...),
			pad(cfg,
				Syllable{Kind: KLoadS, Op: riscv.LD, Dst: 40, Ra: 5, Tag: 0},
				Syllable{Kind: KLoadS, Op: riscv.LD, Dst: 41, Ra: 5, Imm: 8, Tag: 1}),
			pad(cfg,
				Syllable{Kind: KStore, Op: riscv.SD, Ra: 5, Rb: 10},
				Syllable{Kind: KAluRR, Op: riscv.ADD, Dst: 11, Ra: 12, Rb: 13}),
			pad(cfg, Syllable{Kind: KStore, Op: riscv.SD, Ra: 5, Rb: 11, Imm: 8}),
			pad(cfg,
				Syllable{Kind: KChk, Tag: 0, Rec: 0},
				Syllable{Kind: KChk, Tag: 1, Rec: 1},
				Syllable{Kind: KAluRI, Op: riscv.ADDI, Dst: 12, Ra: 12, Imm: 1}),
		},
		Recoveries: [][]Syllable{
			{{Kind: KLoad, Op: riscv.LD, Dst: 40, Ra: 5}},
			{{Kind: KLoad, Op: riscv.LD, Dst: 41, Ra: 5, Imm: 8}},
		},
		GuestInsts: 14,
	}
}

// The steady-state Exec path must not allocate: the write buffer and
// the recovery list live on the Core and are reused across calls. This
// is the 0 allocs/op gate the perf work promises. The gate alternates
// two blocks, the second with wider bundles and more recoveries, so a
// buffer sized by the first block must not regrow (or be reset) on
// every switch.
func TestExecSteadyStateZeroAllocs(t *testing.T) {
	cfg := DefaultConfig()
	c := MustNewCore(cfg)
	narrow, wide := steadyStateBlock(cfg), wideBlock()
	b := newTestBus()
	var regs [NumRegs]uint64
	var cycles uint64
	run := func(blk *Block) {
		if ei := c.Exec(blk, &regs, b, &cycles); ei.Fault != nil {
			t.Fatal(ei.Fault)
		}
	}

	// Warm-up: the first calls may grow the scratch to capacity.
	for i := 0; i < 3; i++ {
		run(narrow)
	}
	recBefore := c.Stats.Recoveries
	run(wide)
	if got := c.Stats.Recoveries - recBefore; got != 2 {
		t.Fatalf("wide block ran %d recoveries, want 2", got)
	}
	allocs := testing.AllocsPerRun(200, func() {
		run(narrow)
		run(wide)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Exec allocates %.1f objects per narrow+wide pair, want 0", allocs)
	}
}

// A dop is one 64-byte cache line; predecode state must fit in it.
func TestDopSize(t *testing.T) {
	if got := unsafe.Sizeof(dop{}); got != 64 {
		t.Fatalf("sizeof(dop) = %d bytes, want 64", got)
	}
}

func BenchmarkExecSteadyState(b *testing.B) {
	cfg := DefaultConfig()
	c := MustNewCore(cfg)
	blk := steadyStateBlock(cfg)
	bs := newTestBus()
	var regs [NumRegs]uint64
	var cycles uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ei := c.Exec(blk, &regs, bs, &cycles); ei.Fault != nil {
			b.Fatal(ei.Fault)
		}
	}
}

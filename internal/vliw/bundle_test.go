package vliw

import (
	"testing"

	"ghostbusters/internal/riscv"
	"ghostbusters/internal/trap"
)

// TestBundleWriteSemantics pins the bundle write contract of the core:
// every syllable reads the register state from before its bundle, the
// bundle's writes land together at its end, r0 writes vanish, a second
// write of one register is a scheduler-invariant fault raised by the
// second writer after its own side effects, a faulting bundle commits
// none of its writes, and MCB recovery runs after the write phase.
func TestBundleWriteSemantics(t *testing.T) {
	cfg := DefaultConfig()
	const wild = 0x9000_0000 // outside the test bus's guest memory

	t.Run("swap reads old values", func(t *testing.T) {
		c := MustNewCore(cfg)
		blk := &Block{FallPC: 0x200, Bundles: []Bundle{
			pad(cfg,
				Syllable{Kind: KAluRR, Op: riscv.ADD, Dst: 5, Ra: 6, Rb: 0},
				Syllable{Kind: KAluRR, Op: riscv.ADD, Dst: 6, Ra: 5, Rb: 0},
				Syllable{Kind: KAluRI, Op: riscv.ADDI, Dst: 7, Ra: 5, Imm: 1}),
			pad(cfg, Syllable{Kind: KAluRI, Op: riscv.ADDI, Dst: 8, Ra: 6, Imm: 0}),
		}}
		var regs [NumRegs]uint64
		regs[5], regs[6] = 111, 222
		var cycles uint64
		if ei := c.Exec(blk, &regs, newTestBus(), &cycles); ei.Fault != nil || ei.NextPC != 0x200 {
			t.Fatalf("ei = %+v", ei)
		}
		if regs[5] != 222 || regs[6] != 111 || regs[7] != 112 || regs[8] != 111 {
			t.Fatalf("r5=%d r6=%d r7=%d r8=%d, want 222 111 112 111", regs[5], regs[6], regs[7], regs[8])
		}
	})

	t.Run("r0 writes discarded", func(t *testing.T) {
		c := MustNewCore(cfg)
		blk := &Block{Bundles: []Bundle{
			// Two r0 writers in one bundle are not a double write.
			pad(cfg,
				Syllable{Kind: KMovI, Dst: 0, Imm: 99},
				Syllable{Kind: KAluRI, Op: riscv.ADDI, Dst: 0, Ra: 5, Imm: 1},
				Syllable{Kind: KMovI, Dst: 5, Imm: 3}),
			pad(cfg, Syllable{Kind: KAluRR, Op: riscv.ADD, Dst: 6, Ra: 0, Rb: 5}),
		}}
		var regs [NumRegs]uint64
		var cycles uint64
		if ei := c.Exec(blk, &regs, newTestBus(), &cycles); ei.Fault != nil {
			t.Fatal(ei.Fault)
		}
		if regs[0] != 0 || regs[5] != 3 || regs[6] != 3 {
			t.Fatalf("r0=%d r5=%d r6=%d, want 0 3 3", regs[0], regs[5], regs[6])
		}
	})

	t.Run("double write faults at the second writer", func(t *testing.T) {
		c := MustNewCore(cfg)
		b := newTestBus()
		const lineA, lineB = 0x20000, 0x20400
		blk := &Block{Bundles: []Bundle{
			pad(cfg, Syllable{Kind: KMovI, Dst: 9, Imm: 1}),
			pad(cfg,
				Syllable{Kind: KLoad, Op: riscv.LD, Dst: 5, Ra: 0, Imm: lineA, GuestPC: 0x1000},
				Syllable{Kind: KMovI, Dst: 7, Imm: 4, GuestPC: 0x1004},
				Syllable{Kind: KLoadD, Op: riscv.LD, Dst: 5, Ra: 0, Imm: lineB, GuestPC: 0x1008},
				Syllable{Kind: KMovI, Dst: 8, Imm: 5, GuestPC: 0x100c}),
		}}
		var regs [NumRegs]uint64
		regs[5], regs[7], regs[8] = 50, 70, 80
		var cycles uint64
		ei := c.Exec(blk, &regs, b, &cycles)
		if !trap.IsKind(ei.Fault, trap.Internal) {
			t.Fatalf("want an internal fault, got %+v", ei)
		}
		if ei.FaultPC != 0x1008 || ei.Fault.PC != 0x1008 {
			t.Fatalf("fault at %#x (fault PC %#x), want the second writer 0x1008", ei.FaultPC, ei.Fault.PC)
		}
		if !b.DC.Probe(lineA) {
			t.Fatal("the first writer's load did not fill the cache before the fault")
		}
		if !b.DC.Probe(lineB) || c.Stats.SpecLoads != 1 {
			t.Fatalf("the second writer's own load did not run (spec loads %d)", c.Stats.SpecLoads)
		}
		if regs[5] != 50 || regs[7] != 70 || regs[8] != 80 || regs[9] != 1 {
			t.Fatalf("faulting bundle leaked writes: r5=%d r7=%d r8=%d r9=%d", regs[5], regs[7], regs[8], regs[9])
		}
	})

	t.Run("fault partway commits nothing", func(t *testing.T) {
		cases := []struct {
			name string
			kind trap.Kind
			bun  Bundle
		}{
			{"poisoned store", trap.DeferredFault, pad(cfg,
				Syllable{Kind: KMovI, Dst: 7, Imm: 99},
				Syllable{Kind: KLoadD, Op: riscv.LD, Dst: 8, Ra: 0, Imm: 0x20000},
				Syllable{Kind: KStore, Op: riscv.SD, Ra: 41, Rb: 7},
				Syllable{Kind: KAluRI, Op: riscv.ADDI, Dst: 9, Ra: 0, Imm: 3})},
			{"wild load after an ALU write", trap.OutOfRangeAccess, pad(cfg,
				Syllable{Kind: KAluRI, Op: riscv.ADDI, Dst: 7, Ra: 7, Imm: 1},
				Syllable{Kind: KLoad, Op: riscv.LD, Dst: 8, Ra: 0, Imm: wild},
				Syllable{Kind: KMovI, Dst: 9, Imm: 3})},
		}
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				c := MustNewCore(cfg)
				blk := &Block{Bundles: []Bundle{
					// r41 := squashed speculative load: poisoned.
					pad(cfg, Syllable{Kind: KLoadD, Op: riscv.LD, Dst: 41, Ra: 0, Imm: wild}),
					tc.bun,
				}}
				var regs [NumRegs]uint64
				regs[7], regs[8], regs[9] = 70, 80, 90
				var cycles uint64
				ei := c.Exec(blk, &regs, newTestBus(), &cycles)
				if !trap.IsKind(ei.Fault, tc.kind) {
					t.Fatalf("want a %s fault, got %+v", tc.kind, ei)
				}
				if regs[7] != 70 || regs[8] != 80 || regs[9] != 90 {
					t.Fatalf("faulting bundle leaked writes: r7=%d r8=%d r9=%d", regs[7], regs[8], regs[9])
				}
			})
		}
	})

	t.Run("recovery runs after the write phase", func(t *testing.T) {
		c := MustNewCore(cfg)
		b := newTestBus()
		_ = b.Mem.Write(0x20000, 8, 1)
		blk := &Block{
			FallPC: 0x300,
			Bundles: []Bundle{
				pad(cfg,
					Syllable{Kind: KLoadS, Op: riscv.LD, Dst: 40, Ra: 0, Imm: 0x20000, Tag: 0},
					Syllable{Kind: KMovI, Dst: 5, Imm: 2}),
				pad(cfg, Syllable{Kind: KStore, Op: riscv.SD, Ra: 0, Rb: 5, Imm: 0x20000}),
				// The chk's bundle writes r6 and r41; recovery reads r6
				// and overwrites r41, so it must see (and beat) both.
				pad(cfg,
					Syllable{Kind: KChk, Tag: 0, Rec: 0},
					Syllable{Kind: KMovI, Dst: 6, Imm: 7},
					Syllable{Kind: KMovI, Dst: 41, Imm: 1000}),
			},
			Recoveries: [][]Syllable{{
				{Kind: KLoad, Op: riscv.LD, Dst: 40, Ra: 0, Imm: 0x20000},
				{Kind: KAluRR, Op: riscv.ADD, Dst: 41, Ra: 40, Rb: 6},
			}},
		}
		var regs [NumRegs]uint64
		var cycles uint64
		if ei := c.Exec(blk, &regs, b, &cycles); ei.Fault != nil || ei.NextPC != 0x300 {
			t.Fatalf("ei = %+v", ei)
		}
		if regs[40] != 2 || regs[6] != 7 || regs[41] != 9 {
			t.Fatalf("r40=%d r6=%d r41=%d, want 2 7 9", regs[40], regs[6], regs[41])
		}
		if c.Stats.Recoveries != 1 {
			t.Fatalf("recoveries = %d, want 1", c.Stats.Recoveries)
		}
	})
}

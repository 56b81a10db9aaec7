package vliw

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"ghostbusters/internal/bus"
	"ghostbusters/internal/cache"
	"ghostbusters/internal/guestmem"
	"ghostbusters/internal/riscv"
)

func newTestBus() *bus.Bus {
	return bus.MustNew(guestmem.New(0x10000, 1<<20), cache.DefaultConfig())
}

// pad fills a bundle to the config width with nops.
func pad(cfg Config, sylls ...Syllable) Bundle {
	b := make(Bundle, cfg.Width())
	copy(b, sylls)
	return b
}

func TestExecStraightLineALU(t *testing.T) {
	cfg := DefaultConfig()
	c := MustNewCore(cfg)
	blk := &Block{
		EntryPC: 0x100,
		FallPC:  0x200,
		Bundles: []Bundle{
			pad(cfg,
				Syllable{Kind: KMovI, Dst: 5, Imm: 7},
				Syllable{Kind: KMovI, Dst: 6, Imm: 5}),
			pad(cfg, Syllable{Kind: KAluRR, Op: riscv.ADD, Dst: 7, Ra: 5, Rb: 6}),
			pad(cfg, Syllable{Kind: KAluRI, Op: riscv.SLLI, Dst: 8, Ra: 7, Imm: 2}),
		},
		GuestInsts: 4,
	}
	var regs [NumRegs]uint64
	var cycles uint64
	b := newTestBus()
	ei := c.Exec(blk, &regs, b, &cycles)
	if ei.Fault != nil {
		t.Fatalf("fault: %v", ei.Fault)
	}
	if ei.NextPC != 0x200 {
		t.Fatalf("NextPC = %#x", ei.NextPC)
	}
	if regs[7] != 12 || regs[8] != 48 {
		t.Fatalf("regs: r7=%d r8=%d", regs[7], regs[8])
	}
	if cycles != 3 {
		t.Fatalf("cycles = %d, want 3 (one per bundle)", cycles)
	}
	if c.Instret != 4 {
		t.Fatalf("instret = %d", c.Instret)
	}
}

func TestExecBundleReadsPreBundleState(t *testing.T) {
	// Swap two registers in one bundle: both reads must sample pre-bundle
	// values (the VLIW lockstep semantics).
	cfg := DefaultConfig()
	c := MustNewCore(cfg)
	blk := &Block{Bundles: []Bundle{
		pad(cfg,
			Syllable{Kind: KAluRI, Op: riscv.ADDI, Dst: 5, Ra: 6},
			Syllable{Kind: KAluRI, Op: riscv.ADDI, Dst: 6, Ra: 5}),
	}}
	var regs [NumRegs]uint64
	regs[5], regs[6] = 111, 222
	var cycles uint64
	ei := c.Exec(blk, &regs, newTestBus(), &cycles)
	if ei.Fault != nil {
		t.Fatal(ei.Fault)
	}
	if regs[5] != 222 || regs[6] != 111 {
		t.Fatalf("swap failed: r5=%d r6=%d", regs[5], regs[6])
	}
}

func TestExecDoubleWriteFaults(t *testing.T) {
	cfg := DefaultConfig()
	c := MustNewCore(cfg)
	blk := &Block{Bundles: []Bundle{
		pad(cfg,
			Syllable{Kind: KMovI, Dst: 5, Imm: 1},
			Syllable{Kind: KMovI, Dst: 5, Imm: 2}),
	}}
	var regs [NumRegs]uint64
	var cycles uint64
	if ei := c.Exec(blk, &regs, newTestBus(), &cycles); ei.Fault == nil {
		t.Fatal("double write in bundle must fault")
	}
}

func TestExecLoadStoreAndMissStall(t *testing.T) {
	cfg := DefaultConfig()
	c := MustNewCore(cfg)
	b := newTestBus()
	_ = b.Mem.Write(0x20000, 8, 0xCAFE)
	blk := &Block{Bundles: []Bundle{
		pad(cfg, Syllable{Kind: KMovI, Dst: 5, Imm: 0x20000}),
		pad(cfg, Syllable{Kind: KLoad, Op: riscv.LD, Dst: 6, Ra: 5}),          // miss
		pad(cfg, Syllable{Kind: KLoad, Op: riscv.LD, Dst: 7, Ra: 5}),          // hit
		pad(cfg, Syllable{Kind: KStore, Op: riscv.SD, Ra: 5, Rb: 6, Imm: 64}), // miss
	}}
	var regs [NumRegs]uint64
	var cycles uint64
	ei := c.Exec(blk, &regs, b, &cycles)
	if ei.Fault != nil {
		t.Fatal(ei.Fault)
	}
	if regs[6] != 0xCAFE || regs[7] != 0xCAFE {
		t.Fatalf("loads: r6=%#x r7=%#x", regs[6], regs[7])
	}
	v, _ := b.Mem.Read(0x20040, 8)
	if v != 0xCAFE {
		t.Fatalf("store result = %#x", v)
	}
	// 4 bundles + 2 miss stalls of 20.
	if cycles != 4+2*20 {
		t.Fatalf("cycles = %d, want 44", cycles)
	}
}

func TestExecSideExit(t *testing.T) {
	cfg := DefaultConfig()
	c := MustNewCore(cfg)
	blk := &Block{
		FallPC: 0x300,
		Bundles: []Bundle{
			pad(cfg, Syllable{Kind: KMovI, Dst: 5, Imm: 1}),
			pad(cfg, Syllable{Kind: KBrExit, Op: riscv.BNE, Ra: 5, Rb: 0, Imm: 0x500}),
			pad(cfg, Syllable{Kind: KMovI, Dst: 6, Imm: 99}), // skipped
		},
	}
	var regs [NumRegs]uint64
	var cycles uint64
	ei := c.Exec(blk, &regs, newTestBus(), &cycles)
	if ei.Fault != nil || !ei.SideExit || ei.NextPC != 0x500 {
		t.Fatalf("exit = %+v", ei)
	}
	if regs[6] == 99 {
		t.Fatal("bundle after exit executed")
	}
	if cycles != 2+cfg.ExitPenalty {
		t.Fatalf("cycles = %d", cycles)
	}
	if c.Stats.SideExits != 1 {
		t.Fatalf("stats = %+v", c.Stats)
	}
}

func TestExecBranchNotTakenFallsThrough(t *testing.T) {
	cfg := DefaultConfig()
	c := MustNewCore(cfg)
	blk := &Block{
		FallPC: 0x300,
		Bundles: []Bundle{
			pad(cfg, Syllable{Kind: KBrExit, Op: riscv.BNE, Ra: 5, Rb: 0, Imm: 0x500}),
			pad(cfg, Syllable{Kind: KMovI, Dst: 6, Imm: 99}),
		},
	}
	var regs [NumRegs]uint64
	var cycles uint64
	ei := c.Exec(blk, &regs, newTestBus(), &cycles)
	if ei.SideExit || ei.NextPC != 0x300 || regs[6] != 99 {
		t.Fatalf("ei=%+v r6=%d", ei, regs[6])
	}
}

func TestExecJumpR(t *testing.T) {
	cfg := DefaultConfig()
	c := MustNewCore(cfg)
	blk := &Block{Bundles: []Bundle{
		pad(cfg, Syllable{Kind: KMovI, Dst: 1, Imm: 0x4242}),
		pad(cfg, Syllable{Kind: KJumpR, Ra: 1, Imm: 8}),
	}}
	var regs [NumRegs]uint64
	var cycles uint64
	ei := c.Exec(blk, &regs, newTestBus(), &cycles)
	if ei.NextPC != 0x424A {
		t.Fatalf("NextPC = %#x", ei.NextPC)
	}
}

func TestExecDismissableLoadSquashAndCommitFault(t *testing.T) {
	cfg := DefaultConfig()
	c := MustNewCore(cfg)
	// ldd from an unmapped address: squashed, poison set; commit faults.
	blk := &Block{Bundles: []Bundle{
		pad(cfg, Syllable{Kind: KMovI, Dst: 40, Imm: 0x7FFFFFFF}),
		pad(cfg, Syllable{Kind: KLoadD, Op: riscv.LD, Dst: 41, Ra: 40}),
		pad(cfg, Syllable{Kind: KCommit, Dst: 6, Ra: 41}),
	}}
	var regs [NumRegs]uint64
	var cycles uint64
	ei := c.Exec(blk, &regs, newTestBus(), &cycles)
	if ei.Fault == nil || !strings.Contains(ei.Fault.Error(), "poisoned") {
		t.Fatalf("want poison fault at commit, got %+v", ei)
	}
	if c.Stats.SpecSquash != 1 {
		t.Fatalf("stats = %+v", c.Stats)
	}
}

func TestExecDismissableLoadSquashDiscardedOnExit(t *testing.T) {
	cfg := DefaultConfig()
	c := MustNewCore(cfg)
	// ldd squashes, but the side exit is taken before the commit: the
	// squashed fault disappears, exactly like misspeculation.
	blk := &Block{
		FallPC: 0x300,
		Bundles: []Bundle{
			pad(cfg,
				Syllable{Kind: KLoadD, Op: riscv.LD, Dst: 41, Ra: 0, Imm: 0x7FFFFF00},
				Syllable{Kind: KMovI, Dst: 5, Imm: 1}),
			pad(cfg, Syllable{Kind: KBrExit, Op: riscv.BNE, Ra: 5, Rb: 0, Imm: 0x500}),
			pad(cfg, Syllable{Kind: KCommit, Dst: 6, Ra: 41}),
		},
	}
	var regs [NumRegs]uint64
	var cycles uint64
	ei := c.Exec(blk, &regs, newTestBus(), &cycles)
	if ei.Fault != nil || !ei.SideExit {
		t.Fatalf("ei = %+v", ei)
	}
}

func TestExecDismissableLoadFillsCache(t *testing.T) {
	// The microarchitectural leak: a dismissable load of protected data
	// succeeds (value flows) and fills the cache line.
	cfg := DefaultConfig()
	c := MustNewCore(cfg)
	b := newTestBus()
	_ = b.Mem.Write(0x30000, 8, 42)
	b.Mem.Protect(0x30000, 0x30008)
	blk := &Block{Bundles: []Bundle{
		pad(cfg, Syllable{Kind: KLoadD, Op: riscv.LD, Dst: 41, Ra: 0, Imm: 0x30000}),
	}}
	var regs [NumRegs]uint64
	var cycles uint64
	if ei := c.Exec(blk, &regs, b, &cycles); ei.Fault != nil {
		t.Fatal(ei.Fault)
	}
	if regs[41] != 42 {
		t.Fatalf("r41 = %d, want the protected value", regs[41])
	}
	if !b.DC.Probe(0x30000) {
		t.Fatal("dismissable load did not fill the cache")
	}
}

// MCB flow: lds hoisted above a store to the same address; chk triggers
// recovery which re-loads the corrected value.
func TestExecMCBConflictRecovery(t *testing.T) {
	cfg := DefaultConfig()
	c := MustNewCore(cfg)
	b := newTestBus()
	_ = b.Mem.Write(0x20000, 8, 1) // old value

	blk := &Block{
		FallPC: 0x300,
		Bundles: []Bundle{
			// speculative load (hoisted above the store), reads old value
			pad(cfg, Syllable{Kind: KLoadS, Op: riscv.LD, Dst: 40, Ra: 0, Imm: 0x20000, Tag: 0},
				Syllable{Kind: KMovI, Dst: 5, Imm: 2}),
			// dependent compute
			pad(cfg, Syllable{Kind: KAluRI, Op: riscv.ADDI, Dst: 41, Ra: 40, Imm: 100}),
			// the store the load was hoisted above: same address -> conflict
			pad(cfg, Syllable{Kind: KStore, Op: riscv.SD, Ra: 0, Rb: 5, Imm: 0x20000}),
			// chk at the load's original position
			pad(cfg, Syllable{Kind: KChk, Tag: 0, Rec: 0}),
			pad(cfg, Syllable{Kind: KCommit, Dst: 6, Ra: 41}),
		},
		Recoveries: [][]Syllable{{
			{Kind: KLoad, Op: riscv.LD, Dst: 40, Ra: 0, Imm: 0x20000},
			{Kind: KAluRI, Op: riscv.ADDI, Dst: 41, Ra: 40, Imm: 100},
		}},
	}
	var regs [NumRegs]uint64
	var cycles uint64
	ei := c.Exec(blk, &regs, b, &cycles)
	if ei.Fault != nil {
		t.Fatal(ei.Fault)
	}
	if regs[6] != 102 {
		t.Fatalf("r6 = %d, want 102 (recovered store value + 100)", regs[6])
	}
	if c.Stats.Recoveries != 1 {
		t.Fatalf("stats = %+v", c.Stats)
	}
}

// No conflict: chk validates silently, speculative value stands.
func TestExecMCBNoConflict(t *testing.T) {
	cfg := DefaultConfig()
	c := MustNewCore(cfg)
	b := newTestBus()
	_ = b.Mem.Write(0x20000, 8, 7)
	blk := &Block{
		FallPC: 0x300,
		Bundles: []Bundle{
			pad(cfg, Syllable{Kind: KLoadS, Op: riscv.LD, Dst: 40, Ra: 0, Imm: 0x20000, Tag: 3},
				Syllable{Kind: KMovI, Dst: 5, Imm: 2}),
			pad(cfg, Syllable{Kind: KStore, Op: riscv.SD, Ra: 0, Rb: 5, Imm: 0x20040}),
			pad(cfg, Syllable{Kind: KChk, Tag: 3, Rec: 0}),
			pad(cfg, Syllable{Kind: KCommit, Dst: 6, Ra: 40}),
		},
		Recoveries: [][]Syllable{{
			{Kind: KLoad, Op: riscv.LD, Dst: 40, Ra: 0, Imm: 0x20000},
		}},
	}
	var regs [NumRegs]uint64
	var cycles uint64
	ei := c.Exec(blk, &regs, b, &cycles)
	if ei.Fault != nil {
		t.Fatal(ei.Fault)
	}
	if regs[6] != 7 {
		t.Fatalf("r6 = %d", regs[6])
	}
	if c.Stats.Recoveries != 0 {
		t.Fatalf("unexpected recovery: %+v", c.Stats)
	}
}

func TestExecMCBOutstandingAtExitFaults(t *testing.T) {
	cfg := DefaultConfig()
	c := MustNewCore(cfg)
	blk := &Block{
		FallPC: 0x300,
		Bundles: []Bundle{
			pad(cfg, Syllable{Kind: KLoadS, Op: riscv.LD, Dst: 40, Ra: 0, Imm: 0x10000, Tag: 0}),
		},
	}
	var regs [NumRegs]uint64
	var cycles uint64
	if ei := c.Exec(blk, &regs, newTestBus(), &cycles); ei.Fault == nil {
		t.Fatal("unconsumed MCB entry at fallthrough must fault (codegen invariant)")
	}
}

func TestExecSideExitClearsMCB(t *testing.T) {
	cfg := DefaultConfig()
	c := MustNewCore(cfg)
	blk := &Block{
		FallPC: 0x300,
		Bundles: []Bundle{
			pad(cfg, Syllable{Kind: KLoadS, Op: riscv.LD, Dst: 40, Ra: 0, Imm: 0x10000, Tag: 0},
				Syllable{Kind: KMovI, Dst: 5, Imm: 1}),
			pad(cfg, Syllable{Kind: KBrExit, Op: riscv.BNE, Ra: 5, Rb: 0, Imm: 0x500}),
		},
	}
	var regs [NumRegs]uint64
	var cycles uint64
	ei := c.Exec(blk, &regs, newTestBus(), &cycles)
	if ei.Fault != nil || !ei.SideExit {
		t.Fatalf("ei = %+v", ei)
	}
	if c.MCB.Outstanding() != 0 {
		t.Fatal("MCB not cleared on side exit")
	}
}

func TestExecRdcycleObservesStalls(t *testing.T) {
	cfg := DefaultConfig()
	c := MustNewCore(cfg)
	b := newTestBus()
	blk := &Block{
		FallPC: 0x300,
		Bundles: []Bundle{
			pad(cfg, Syllable{Kind: KCsr, Dst: 5, Imm: riscv.CSRCycle}),
			pad(cfg, Syllable{Kind: KLoad, Op: riscv.LD, Dst: 6, Ra: 0, Imm: 0x10000}), // miss
			pad(cfg, Syllable{Kind: KCsr, Dst: 7, Imm: riscv.CSRCycle}),
		},
	}
	var regs [NumRegs]uint64
	var cycles uint64
	if ei := c.Exec(blk, &regs, b, &cycles); ei.Fault != nil {
		t.Fatal(ei.Fault)
	}
	delta := regs[7] - regs[5]
	if delta < 20 {
		t.Fatalf("rdcycle delta = %d, want >= miss penalty", delta)
	}
}

func TestExecFlush(t *testing.T) {
	cfg := DefaultConfig()
	c := MustNewCore(cfg)
	b := newTestBus()
	b.DC.Access(0x10000)
	blk := &Block{Bundles: []Bundle{
		pad(cfg, Syllable{Kind: KMovI, Dst: 5, Imm: 0x10000}),
		pad(cfg, Syllable{Kind: KFlush, Op: riscv.CFLUSH, Ra: 5}),
	}}
	var regs [NumRegs]uint64
	var cycles uint64
	if ei := c.Exec(blk, &regs, b, &cycles); ei.Fault != nil {
		t.Fatal(ei.Fault)
	}
	if b.DC.Probe(0x10000) {
		t.Fatal("flush did not evict")
	}
	// flushall
	b.DC.Access(0x10000)
	blk2 := &Block{Bundles: []Bundle{pad(cfg, Syllable{Kind: KFlush, Op: riscv.CFLUSHALL})}}
	if ei := c.Exec(blk2, &regs, b, &cycles); ei.Fault != nil {
		t.Fatal(ei.Fault)
	}
	if b.DC.Probe(0x10000) {
		t.Fatal("flushall did not evict")
	}
}

func TestExecArchUseOfPoisonFaults(t *testing.T) {
	cfg := DefaultConfig()
	mk := func(use Syllable) *Block {
		return &Block{Bundles: []Bundle{
			pad(cfg, Syllable{Kind: KLoadD, Op: riscv.LD, Dst: 40, Ra: 0, Imm: 0x7FFFFF00}), // squash
			pad(cfg, use),
		}}
	}
	uses := []Syllable{
		{Kind: KStore, Op: riscv.SD, Ra: 40, Rb: 0, Imm: 0},
		{Kind: KStore, Op: riscv.SD, Ra: 0, Rb: 40, Imm: 0x10000},
		{Kind: KBrExit, Op: riscv.BEQ, Ra: 40, Rb: 0, Imm: 0x500},
		{Kind: KJumpR, Ra: 40},
		{Kind: KLoad, Op: riscv.LD, Dst: 6, Ra: 40},
		{Kind: KFlush, Op: riscv.CFLUSH, Ra: 40},
	}
	for i, u := range uses {
		c := MustNewCore(cfg)
		var regs [NumRegs]uint64
		var cycles uint64
		if ei := c.Exec(mk(u), &regs, newTestBus(), &cycles); ei.Fault == nil {
			t.Errorf("use %d (%s): poisoned architectural use must fault", i, u)
		}
	}
}

func TestExecPoisonPropagatesThroughALU(t *testing.T) {
	cfg := DefaultConfig()
	c := MustNewCore(cfg)
	blk := &Block{Bundles: []Bundle{
		pad(cfg, Syllable{Kind: KLoadD, Op: riscv.LD, Dst: 40, Ra: 0, Imm: 0x7FFFFF00}),
		pad(cfg, Syllable{Kind: KAluRI, Op: riscv.ADDI, Dst: 41, Ra: 40, Imm: 1}),
		pad(cfg, Syllable{Kind: KLoadD, Op: riscv.LD, Dst: 42, Ra: 41}), // poisoned addr: squash again
		pad(cfg, Syllable{Kind: KCommit, Dst: 6, Ra: 42}),
	}}
	var regs [NumRegs]uint64
	var cycles uint64
	ei := c.Exec(blk, &regs, newTestBus(), &cycles)
	if ei.Fault == nil || !strings.Contains(ei.Fault.Error(), "poisoned") {
		t.Fatalf("want poison fault, got %+v", ei)
	}
	if c.Stats.SpecSquash != 2 {
		t.Fatalf("squash count = %d, want 2", c.Stats.SpecSquash)
	}
}

func TestConfigValidateAndVariants(t *testing.T) {
	for _, cfg := range []Config{DefaultConfig(), WideConfig(), NarrowConfig()} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("config invalid: %v", err)
		}
	}
	bad := Config{Slots: []SlotCap{CapALU}, LatALU: 1, LatLoad: 3}
	if bad.Validate() == nil {
		t.Error("config without mem/mul/branch slots must be invalid")
	}
	if (&Config{}).Validate() == nil {
		t.Error("empty config must be invalid")
	}
}

func TestLatencyTable(t *testing.T) {
	cfg := DefaultConfig()
	cases := []struct {
		s    Syllable
		want uint64
	}{
		{Syllable{Kind: KAluRR, Op: riscv.ADD}, cfg.LatALU},
		{Syllable{Kind: KAluRR, Op: riscv.MUL}, cfg.LatMul},
		{Syllable{Kind: KAluRR, Op: riscv.DIV}, cfg.LatDiv},
		{Syllable{Kind: KLoad, Op: riscv.LD}, cfg.LatLoad},
		{Syllable{Kind: KLoadS, Op: riscv.LW}, cfg.LatLoad},
		{Syllable{Kind: KMovI}, cfg.LatALU},
	}
	for _, c := range cases {
		if got := cfg.Latency(&c.s); got != c.want {
			t.Errorf("Latency(%s) = %d, want %d", c.s, got, c.want)
		}
	}
}

func TestCapFor(t *testing.T) {
	if CapFor(KLoad, riscv.LD) != CapMem {
		t.Error("mem caps wrong")
	}
	if CapFor(KChk, 0) != CapALU {
		t.Error("chk should use the MCB's own port (ALU slot)")
	}
	if CapFor(KAluRR, riscv.MUL) != CapMul || CapFor(KAluRR, riscv.DIVU) != CapMul {
		t.Error("mul caps wrong")
	}
	if CapFor(KBrExit, riscv.BEQ) != CapBranch || CapFor(KJumpR, 0) != CapBranch {
		t.Error("branch caps wrong")
	}
	if CapFor(KAluRI, riscv.ADDI) != CapALU || CapFor(KCommit, 0) != CapALU {
		t.Error("alu caps wrong")
	}
}

func TestMCBUnit(t *testing.T) {
	var m MCB
	if err := m.Insert(0, 0x100, 8, false); err != nil {
		t.Fatal(err)
	}
	if err := m.Insert(0, 0x200, 8, false); err == nil {
		t.Fatal("double insert must error")
	}
	m.StoreCheck(0x104, 4) // overlaps
	conflict, faulted, err := m.Consume(0)
	if err != nil || !conflict || faulted {
		t.Fatalf("consume = %v %v %v", conflict, faulted, err)
	}
	if _, _, err := m.Consume(0); err == nil {
		t.Fatal("double consume must error")
	}
	// Non-overlapping store.
	_ = m.Insert(1, 0x100, 4, false)
	m.StoreCheck(0x104, 4)
	if conflict, _, _ := m.Consume(1); conflict {
		t.Fatal("adjacent store flagged as conflict")
	}
	// Faulted entries report faulted.
	_ = m.Insert(2, 0, 8, true)
	if _, faulted, _ := m.Consume(2); !faulted {
		t.Fatal("faulted flag lost")
	}
	if m.Outstanding() != 0 {
		t.Fatal("outstanding after consume")
	}
	_ = m.Insert(3, 0, 8, false)
	m.Reset()
	if m.Outstanding() != 0 {
		t.Fatal("reset did not clear")
	}
	if err := m.Insert(MCBEntries, 0, 8, false); err == nil {
		t.Fatal("tag out of range must error")
	}
}

// Encoding round trip over randomized blocks.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	kinds := []Kind{KNop, KAluRR, KAluRI, KMovI, KLoad, KLoadD, KLoadS, KStore, KChk, KBrExit, KJump, KJumpR, KCsr, KFlush, KCommit}
	ops := []riscv.Op{riscv.ADD, riscv.MUL, riscv.LD, riscv.LW, riscv.SD, riscv.BEQ, riscv.CFLUSH, riscv.ADDI, riscv.SLLI}
	for trial := 0; trial < 200; trial++ {
		width := 1 + r.Intn(8)
		blk := &Block{
			EntryPC:    uint64(r.Uint32()),
			FallPC:     uint64(r.Uint32()),
			GuestInsts: r.Intn(100),
		}
		for i := 0; i < 1+r.Intn(10); i++ {
			bun := make(Bundle, width)
			for j := range bun {
				bun[j] = Syllable{
					Kind: kinds[r.Intn(len(kinds))],
					Op:   ops[r.Intn(len(ops))],
					Dst:  uint8(r.Intn(64)),
					Ra:   uint8(r.Intn(64)),
					Rb:   uint8(r.Intn(64)),
					Imm:  int64(int32(r.Uint32())),
					Tag:  uint8(r.Intn(8)),
					Rec:  int16(r.Intn(4)) - 1,
				}
			}
			blk.Bundles = append(blk.Bundles, bun)
		}
		for i := 0; i < r.Intn(3); i++ {
			var rec []Syllable
			for j := 0; j < 1+r.Intn(4); j++ {
				rec = append(rec, Syllable{Kind: KLoad, Op: riscv.LD, Dst: uint8(r.Intn(64)), Ra: uint8(r.Intn(64)), Imm: int64(r.Intn(1 << 20))})
			}
			blk.Recoveries = append(blk.Recoveries, rec)
		}
		data, err := EncodeBlock(blk)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		got, err := DecodeBlock(data)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got.EntryPC != blk.EntryPC || got.FallPC != blk.FallPC || got.GuestInsts != blk.GuestInsts {
			t.Fatalf("header mismatch: %+v vs %+v", got, blk)
		}
		if len(got.Bundles) != len(blk.Bundles) || len(got.Recoveries) != len(blk.Recoveries) {
			t.Fatalf("shape mismatch")
		}
		for i := range blk.Bundles {
			for j := range blk.Bundles[i] {
				want := blk.Bundles[i][j]
				want.GuestPC = 0 // not encoded
				if got.Bundles[i][j] != want {
					t.Fatalf("bundle %d syll %d: got %+v want %+v", i, j, got.Bundles[i][j], want)
				}
			}
		}
		for i := range blk.Recoveries {
			for j := range blk.Recoveries[i] {
				want := blk.Recoveries[i][j]
				want.GuestPC = 0
				if got.Recoveries[i][j] != want {
					t.Fatalf("rec %d syll %d mismatch", i, j)
				}
			}
		}
	}
}

func TestDecodeRejectsCorrupt(t *testing.T) {
	blk := &Block{Bundles: []Bundle{{Syllable{Kind: KMovI, Dst: 5, Imm: 1}}}}
	data, err := EncodeBlock(blk)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeBlock(data[:8]); err == nil {
		t.Error("truncated image accepted")
	}
	bad := append([]byte(nil), data...)
	bad[0] ^= 0xFF
	if _, err := DecodeBlock(bad); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := DecodeBlock(data[:len(data)-8]); err == nil {
		t.Error("missing pool accepted")
	}
	// Length fields chosen to overflow naive index arithmetic: a
	// recovery length of 2^63-1 once wrapped the recovery walk to a
	// negative index, and a huge bundle count times the width wrapped
	// the bundle table bound.
	for name, words := range map[string][]uint64{
		"recovery length": {blockMagic, 0, 0, 0, 1 << 32, 0x7FFF_FFFF_FFFF_FFFF, 0},
		"bundle table":    {blockMagic, 0, 0, 64 << 32, 0xFFFF_FFFF, 0},
		"width 0":         {blockMagic, 0, 0, 0, 1, 0},
		"width > NumRegs": {blockMagic, 0, 0, (NumRegs + 1) << 32, 0, 0},
		"pool length":     {blockMagic, 0, 0, 0, 0, 1<<64 - 1},
		"recovery index":  {blockMagic, 0, 0, 1 << 32, 1, uint64(KChk) | 0xFFF<<35, 0},
	} {
		img := make([]byte, 8*len(words))
		for i, w := range words {
			binary.LittleEndian.PutUint64(img[8*i:], w)
		}
		if _, err := DecodeBlock(img); err == nil {
			t.Errorf("%s: corrupt image accepted", name)
		}
	}
}

// FuzzDecodeBlock feeds DecodeBlock arbitrary images (it reads disk
// bytes through the translation cache): it must never panic, and any
// block it accepts must survive encode → decode unchanged.
func FuzzDecodeBlock(f *testing.F) {
	for _, blk := range []*Block{
		{},
		{EntryPC: 0x100, FallPC: 0x120, GuestInsts: 3,
			Bundles: []Bundle{
				{{Kind: KLoadS, Op: riscv.LD, Dst: 40, Ra: 5, Imm: 8, Tag: 1, Rec: -1}, {Kind: KChk, Tag: 1, Rec: 0}},
				{{Kind: KMovI, Dst: 6, Imm: -1 << 40, Rec: -1}, {Kind: KJump, Imm: 0x12345678, Rec: -1}},
			},
			Recoveries: [][]Syllable{{{Kind: KLoad, Op: riscv.LD, Dst: 40, Ra: 5, Imm: 8, Rec: -1}}, {}},
		},
	} {
		img, err := EncodeBlock(blk)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(img)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		blk, err := DecodeBlock(data)
		if err != nil {
			return
		}
		img, err := EncodeBlock(blk)
		if err != nil {
			t.Fatalf("accepted block does not re-encode: %v", err)
		}
		again, err := DecodeBlock(img)
		if err != nil {
			t.Fatalf("re-encoded block does not decode: %v", err)
		}
		if !reflect.DeepEqual(blk, again) {
			t.Fatalf("block changed in an encode → decode round trip:\n%v\n%v", blk, again)
		}
	})
}

func TestBlockString(t *testing.T) {
	blk := &Block{
		EntryPC: 0x100,
		Bundles: []Bundle{{
			Syllable{Kind: KLoadS, Op: riscv.LD, Dst: 40, Ra: 5, Imm: 8, Tag: 1},
			Syllable{Kind: KChk, Tag: 1, Rec: 0},
			Syllable{Kind: KBrExit, Op: riscv.BNE, Ra: 5, Rb: 6, Imm: 0x200},
			Syllable{Kind: KCommit, Dst: 5, Ra: 40},
		}},
		Recoveries: [][]Syllable{{{Kind: KLoad, Op: riscv.LD, Dst: 40, Ra: 5, Imm: 8}}},
	}
	s := blk.String()
	for _, want := range []string{"lds", "chk", "br.", "commit", "rec0"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestExecRecoveryReplaysCommitAndRefreshesLDS(t *testing.T) {
	// Conflict recovery replays a dependent lds (refreshing its MCB
	// entry) and a commit; the dependent chk then validates cleanly.
	cfg := DefaultConfig()
	c := MustNewCore(cfg)
	b := newTestBus()
	_ = b.Mem.Write(0x20000, 8, 0x20100) // pointer slot: points at 0x20100
	_ = b.Mem.Write(0x20100, 8, 7)       // old target value
	_ = b.Mem.Write(0x20200, 8, 0x20300) // corrected pointer
	_ = b.Mem.Write(0x20300, 8, 9)       // corrected target value

	blk := &Block{
		FallPC: 0x300,
		Bundles: []Bundle{
			// lds1 reads the pointer slot speculatively (stale).
			pad(cfg, Syllable{Kind: KLoadS, Op: riscv.LD, Dst: 40, Ra: 0, Imm: 0x20000, Tag: 0},
				Syllable{Kind: KMovI, Dst: 5, Imm: 0x20200}),
			pad(cfg, Syllable{Kind: KMovI, Dst: 6, Imm: 0}),
			// lds2 dereferences it (dependent speculative load).
			pad(cfg, Syllable{Kind: KLoadS, Op: riscv.LD, Dst: 41, Ra: 40, Tag: 1}),
			// the store the loads were hoisted above: overwrites the
			// pointer slot with the corrected pointer.
			pad(cfg, Syllable{Kind: KLoad, Op: riscv.LD, Dst: 7, Ra: 5}),
			pad(cfg, Syllable{Kind: KStore, Op: riscv.SD, Ra: 0, Rb: 7, Imm: 0x20000}),
			// chk1 detects the conflict and replays the whole slice.
			pad(cfg, Syllable{Kind: KChk, Tag: 0, Rec: 0}),
			pad(cfg, Syllable{Kind: KChk, Tag: 1, Rec: 1}),
			pad(cfg, Syllable{Kind: KCommit, Dst: 10, Ra: 41}),
		},
		Recoveries: [][]Syllable{
			{
				{Kind: KLoad, Op: riscv.LD, Dst: 40, Ra: 0, Imm: 0x20000},
				{Kind: KLoadS, Op: riscv.LD, Dst: 41, Ra: 40, Tag: 1},
			},
			{
				{Kind: KLoad, Op: riscv.LD, Dst: 41, Ra: 40},
			},
		},
	}
	var regs [NumRegs]uint64
	var cycles uint64
	ei := c.Exec(blk, &regs, b, &cycles)
	if ei.Fault != nil {
		t.Fatal(ei.Fault)
	}
	if regs[10] != 9 {
		t.Fatalf("committed value = %d, want 9 (corrected chain)", regs[10])
	}
	if c.Stats.Recoveries == 0 {
		t.Fatal("no recovery ran")
	}
	if c.MCB.Outstanding() != 0 {
		t.Fatal("MCB entries left")
	}
}

func TestExecInstretCSR(t *testing.T) {
	cfg := DefaultConfig()
	c := MustNewCore(cfg)
	c.Instret = 123
	blk := &Block{Bundles: []Bundle{
		pad(cfg, Syllable{Kind: KCsr, Dst: 5, Imm: riscv.CSRInstret}),
	}, GuestInsts: 7}
	var regs [NumRegs]uint64
	var cycles uint64
	if ei := c.Exec(blk, &regs, newTestBus(), &cycles); ei.Fault != nil {
		t.Fatal(ei.Fault)
	}
	if regs[5] != 123 {
		t.Fatalf("instret read = %d", regs[5])
	}
	if c.Instret != 130 {
		t.Fatalf("instret after block = %d, want 130", c.Instret)
	}
}

func TestExecJumpOverridesFallthrough(t *testing.T) {
	cfg := DefaultConfig()
	c := MustNewCore(cfg)
	blk := &Block{
		FallPC: 0x999,
		Bundles: []Bundle{
			pad(cfg, Syllable{Kind: KJump, Imm: 0x1234}),
		},
	}
	var regs [NumRegs]uint64
	var cycles uint64
	ei := c.Exec(blk, &regs, newTestBus(), &cycles)
	if ei.NextPC != 0x1234 || ei.SideExit {
		t.Fatalf("ei = %+v", ei)
	}
}

func TestZeroBundleBlockCostsACycle(t *testing.T) {
	cfg := DefaultConfig()
	c := MustNewCore(cfg)
	blk := &Block{FallPC: 0x10}
	var regs [NumRegs]uint64
	var cycles uint64
	if ei := c.Exec(blk, &regs, newTestBus(), &cycles); ei.Fault != nil {
		t.Fatal(ei.Fault)
	}
	if cycles != 1 {
		t.Fatalf("zero-bundle dispatch cost %d cycles, want 1", cycles)
	}
}

func TestWritesToR0Discarded(t *testing.T) {
	cfg := DefaultConfig()
	c := MustNewCore(cfg)
	blk := &Block{Bundles: []Bundle{
		pad(cfg, Syllable{Kind: KMovI, Dst: 0, Imm: 99},
			Syllable{Kind: KAluRI, Op: riscv.ADDI, Dst: 5, Ra: 0, Imm: 1}),
	}}
	var regs [NumRegs]uint64
	var cycles uint64
	if ei := c.Exec(blk, &regs, newTestBus(), &cycles); ei.Fault != nil {
		t.Fatal(ei.Fault)
	}
	if regs[0] != 0 || regs[5] != 1 {
		t.Fatalf("r0=%d r5=%d", regs[0], regs[5])
	}
}

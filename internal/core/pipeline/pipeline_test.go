package pipeline

import (
	"reflect"
	"strings"
	"testing"

	"ghostbusters/internal/core"
	"ghostbusters/internal/ir"
	"ghostbusters/internal/riscv"
)

// v1Block models Fig. 1: bounds-check branch, secret read, dependent
// leaking load.
func v1Block(t *testing.T) *ir.Block {
	t.Helper()
	bu := ir.NewBuilder(0x1000)
	n0 := bu.Emit(ir.Inst{Op: riscv.SLTU, A: ir.RegIn(10), B: ir.RegIn(11), DestArch: 5})
	bu.Emit(ir.Inst{Op: riscv.BEQ, A: ir.FromInst(n0), DestArch: -1, BranchExit: 0x2000})
	n2 := bu.Emit(ir.Inst{Op: riscv.LBU, A: ir.RegIn(12), DestArch: 6})
	n3 := bu.Emit(ir.Inst{Op: riscv.SLLI, A: ir.FromInst(n2), Imm: 7, DestArch: 7})
	bu.Emit(ir.Inst{Op: riscv.LBU, A: ir.FromInst(n3), DestArch: 28})
	b := bu.Block()
	if err := b.Verify(); err != nil {
		t.Fatal(err)
	}
	return b
}

// v4Block models Fig. 2: slow store, then a dependent double load that
// may bypass it.
func v4Block(t *testing.T) *ir.Block {
	t.Helper()
	bu := ir.NewBuilder(0x3000)
	n0 := bu.Emit(ir.Inst{Op: riscv.MUL, A: ir.RegIn(5), B: ir.RegIn(6), DestArch: 7})
	bu.Emit(ir.Inst{Op: riscv.SD, A: ir.RegIn(8), B: ir.FromInst(n0), DestArch: -1})
	n2 := bu.Emit(ir.Inst{Op: riscv.LD, A: ir.RegIn(9), DestArch: 10})
	n3 := bu.Emit(ir.Inst{Op: riscv.ADD, A: ir.FromInst(n2), B: ir.RegIn(11), DestArch: 12})
	bu.Emit(ir.Inst{Op: riscv.LBU, A: ir.FromInst(n3), DestArch: 13})
	b := bu.Block()
	if err := b.Verify(); err != nil {
		t.Fatal(err)
	}
	return b
}

var blockMakers = map[string]func(*testing.T) *ir.Block{
	"v1": v1Block,
	"v4": v4Block,
}

// apply runs one mode through Apply, failing the test on error.
func apply(t *testing.T, b *ir.Block, mode core.Mode) core.Report {
	t.Helper()
	rep, err := Apply(b, mode, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func relaxableEdges(b *ir.Block) int {
	n := 0
	for _, e := range b.Edges {
		if e.Relaxable {
			n++
		}
	}
	return n
}

// The mode table covers the paper's four modes plus the ported
// mitigations, in mode-value order, and rejects a mode it has no entry
// for.
func TestRegistryCoversAllModes(t *testing.T) {
	modes := Modes()
	if len(modes) < 7 {
		t.Fatalf("mode table has %d modes, want the four paper modes plus >= 3 ported mitigations", len(modes))
	}
	for i, m := range modes {
		if m != core.Mode(i) {
			t.Fatalf("Modes() not the dense mode-value sequence: %v", modes)
		}
	}
	if _, err := Apply(v1Block(t), core.Mode(len(modes)), nil); err == nil {
		t.Error("Apply(mode without a table entry) should fail")
	}
}

// Every mode name round-trips through ParseMode/String, and ParseMode's
// error lists every mode in mode order — the same list the CLIs print
// in their -mode help.
func TestModeNamesRoundTrip(t *testing.T) {
	_, err := core.ParseMode("bogus")
	if err == nil {
		t.Fatal("ParseMode(bogus) should fail")
	}
	msg := err.Error()
	at := 0
	for _, m := range Modes() {
		name := m.String()
		if parsed, err := core.ParseMode(name); err != nil || parsed != m {
			t.Errorf("core.ParseMode(%q) = %v, %v", name, parsed, err)
		}
		i := strings.Index(msg[at:], name)
		if i < 0 {
			t.Fatalf("ParseMode error %q does not list %q after offset %d", msg, name, at)
		}
		at += i + len(name)
	}
	if s := core.Mode(len(Modes())).String(); !strings.HasPrefix(s, "mode(") {
		t.Errorf("mode past the table renders as %q", s)
	}
}

func TestFig4ModesAreTheSeedFour(t *testing.T) {
	want := []core.Mode{core.ModeUnsafe, core.ModeGhostBusters, core.ModeFence, core.ModeNoSpeculation}
	if got := Fig4Modes(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Fig4Modes() = %v, want %v (the byte-identity gate covers exactly the seed modes)", got, want)
	}
}

// Every mode must be idempotent: a second application to the
// already-mitigated block changes neither instructions nor edges.
func TestPipelinesIdempotent(t *testing.T) {
	for _, mode := range Modes() {
		for variant, mk := range blockMakers {
			b := mk(t)
			apply(t, b, mode)
			insts := append([]ir.Inst(nil), b.Insts...)
			edges := append([]ir.Edge(nil), b.Edges...)
			apply(t, b, mode)
			if !reflect.DeepEqual(b.Insts, insts) {
				t.Errorf("%s/%s: second application changed instructions (%d -> %d)",
					mode, variant, len(insts), len(b.Insts))
			}
			if !reflect.DeepEqual(b.Edges, edges) {
				t.Errorf("%s/%s: second application changed edges (%d -> %d)",
					mode, variant, len(edges), len(b.Edges))
			}
			if err := b.Verify(); err != nil {
				t.Errorf("%s/%s: mitigated block fails Verify: %v", mode, variant, err)
			}
		}
	}
}

func TestUnsafePipelineIsNoOp(t *testing.T) {
	b := v1Block(t)
	insts := append([]ir.Inst(nil), b.Insts...)
	edges := append([]ir.Edge(nil), b.Edges...)
	rep := apply(t, b, core.ModeUnsafe)
	if !rep.PatternFound() {
		t.Error("unsafe mode should still report the detected pattern")
	}
	if !reflect.DeepEqual(b.Insts, insts) || !reflect.DeepEqual(b.Edges, edges) {
		t.Fatal("unsafe mode mutated the block")
	}
}

// loadfence pins every speculative load — the blanket strawman.
func TestLoadFencePinsEveryLoad(t *testing.T) {
	b := v1Block(t)
	before := relaxableEdges(b)
	apply(t, b, core.ModeLoadFence)
	for i, in := range b.Insts {
		if in.IsLoad() && b.HasRelaxableIn(i) {
			t.Errorf("load n%d still speculative under loadfence", i)
		}
	}
	if relaxableEdges(b) == before {
		t.Error("loadfence pinned no edges on a speculating block")
	}
}

// sfi-clamp keeps the risky load speculative but rewrites its address
// to a mask-chain result: the leak is neutralised without losing the
// speculation.
func TestSFIClampMasksInsteadOfPinning(t *testing.T) {
	b := v1Block(t)
	before := len(b.Insts)
	rep := apply(t, b, core.ModeSFIClamp)
	if len(rep.RiskyLoads) != 1 {
		t.Fatalf("RiskyLoads = %v", rep.RiskyLoads)
	}
	load := rep.RiskyLoads[0]
	if !b.HasRelaxableIn(load) {
		t.Error("sfi-clamp pinned the risky load; it should keep speculating")
	}
	a := b.Insts[load].A
	if a.Kind != ir.OpInst || b.Insts[a.Inst].DestArch != ir.TempDest {
		t.Fatalf("risky load address not rewritten to a TempDest mask (A = %v)", a)
	}
	var inserted int
	for _, in := range b.Insts {
		if in.DestArch == ir.TempDest {
			inserted++
		}
	}
	if grown := len(b.Insts) - before; grown != inserted {
		t.Errorf("block grew by %d insts, has %d TempDest insts", grown, inserted)
	}
	if err := b.Verify(); err != nil {
		t.Fatal(err)
	}
}

// v4's guard is a store, not a branch: there is no predicate to mask
// with, so sfi-clamp must fall back to pinning rather than leave the
// bypass open.
func TestSFIClampFallsBackOnStoreGuards(t *testing.T) {
	b := v4Block(t)
	rep := apply(t, b, core.ModeSFIClamp)
	if len(rep.RiskyLoads) != 1 {
		t.Fatalf("RiskyLoads = %v", rep.RiskyLoads)
	}
	if b.HasRelaxableIn(rep.RiskyLoads[0]) {
		t.Error("store-guarded risky load left speculative without a mask")
	}
	if rep.GuardEdges == 0 {
		t.Error("fallback pin inserted no guard edges")
	}
}

// fence-min pins a vertex cut of the poison flow: after it runs,
// re-analysis must find no remaining Spectre pattern.
func TestFenceMinCutsThePattern(t *testing.T) {
	for variant, mk := range blockMakers {
		b := mk(t)
		rep := apply(t, b, core.ModeFenceMin)
		if !rep.PatternFound() {
			t.Fatalf("%s: pattern not detected", variant)
		}
		if after, _ := core.AnalyzePins(b, nil); after.PatternFound() {
			t.Errorf("%s: pattern survives fence-min: %+v", variant, after)
		}
	}
}

// The audit attributes the mitigation work to the block: under every
// mode its guard-edge count is the report's, it explains the pattern
// with a pinned chain, and it replays against the mitigated block.
func TestAuditAttribution(t *testing.T) {
	for _, mode := range Modes() {
		b := v1Block(t)
		aud := &ir.AuditReport{}
		rep, err := Apply(b, mode, aud)
		if err != nil {
			t.Fatal(err)
		}
		if len(aud.Pinned) != len(rep.RiskyLoads) {
			t.Errorf("%s: %d pinned chains for %d risky loads", mode, len(aud.Pinned), len(rep.RiskyLoads))
		}
		if aud.GuardEdges != rep.GuardEdges {
			t.Errorf("%s: audit GuardEdges %d != report %d", mode, aud.GuardEdges, rep.GuardEdges)
		}
		if err := aud.Verify(b, mode == core.ModeGhostBusters); err != nil {
			t.Errorf("%s: audit fails verification: %v", mode, err)
		}
	}
}

// Every mode mutates blocks only through deterministic iteration:
// repeated applications to equal blocks must agree byte-for-byte.
func TestPipelinesDeterministic(t *testing.T) {
	for _, mode := range Modes() {
		for variant, mk := range blockMakers {
			ref := mk(t)
			apply(t, ref, mode)
			for i := 0; i < 4; i++ {
				b := mk(t)
				apply(t, b, mode)
				if !reflect.DeepEqual(b.Insts, ref.Insts) || !reflect.DeepEqual(b.Edges, ref.Edges) {
					t.Fatalf("%s/%s: run %d diverged from the first application", mode, variant, i)
				}
			}
		}
	}
}

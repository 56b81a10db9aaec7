package dbt

import (
	"errors"
	"strings"
	"testing"

	"ghostbusters/internal/riscv"
	"ghostbusters/internal/trap"
)

// runForFault assembles src, applies patch to the program (nil = none),
// runs it under cfg and returns the guest trap. It fails the test if the
// run succeeds or dies on a non-trap error.
func runForFault(t *testing.T, src string, patch func(*riscv.Program), cfg Config) (*trap.Fault, *Machine) {
	t.Helper()
	p, err := riscv.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	if patch != nil {
		patch(p)
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Release)
	if err := m.Load(p); err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err == nil {
		t.Fatalf("expected a guest trap, got clean exit code %d", res.Exit.Code)
	}
	f := trap.As(err)
	if f == nil {
		t.Fatalf("expected a *trap.Fault, got %T: %v", err, err)
	}
	return f, m
}

// TestGuestTrapPaths drives each malformed-guest class through both
// execution modes and checks that the surfaced fault carries the right
// kind, guest PC and faulting address.
func TestGuestTrapPaths(t *testing.T) {
	// Text base is 0x10000 and each case puts the faulting instruction
	// at a known offset, so expected PCs are exact.
	cases := []struct {
		name     string
		src      string
		patch    func(*riscv.Program)
		tweak    func(*Config)
		wantKind trap.Kind
		wantPC   uint64 // 0 = don't check
		wantAddr uint64 // 0 = don't check
	}{
		{
			name:     "misaligned load under strict alignment",
			src:      "main:\n\tld t1, 1(zero)\n",
			tweak:    func(c *Config) { c.StrictAlign = true },
			wantKind: trap.MisalignedAccess,
			wantPC:   0x10000,
			wantAddr: 1,
		},
		{
			name: "out-of-range load",
			// lui t0, 0x40000 -> t0 = 0x40000000: aligned, far beyond the
			// 16 MiB guest image, and clear of rv64 lui sign extension.
			src:      "main:\n\tlui t0, 0x40000\n\tld t1, 0(t0)\n",
			wantKind: trap.OutOfRangeAccess,
			wantPC:   0x10004,
			wantAddr: 0x40000000,
		},
		{
			name:     "out-of-range store",
			src:      "main:\n\tlui t0, 0x40000\n\tsd t1, 0(t0)\n",
			wantKind: trap.OutOfRangeAccess,
			wantPC:   0x10004,
			wantAddr: 0x40000000,
		},
		{
			name:     "jump to non-text address",
			src:      "main:\n\tlui t0, 0x9000\n\tjr t0\n",
			wantKind: trap.InvalidBranchTarget,
			wantPC:   0x9000000,
			wantAddr: 0x9000000,
		},
		{
			name: "illegal opcode",
			src:  "main:\n\tnop\n\tnop\n\tnop\n",
			patch: func(p *riscv.Program) {
				p.Text[1] = 0xFFFFFFFF
			},
			wantKind: trap.IllegalInstruction,
			wantPC:   0x10004,
		},
		{
			name:     "cycle budget exhaustion",
			src:      "main:\n\tj main\n",
			tweak:    func(c *Config) { c.MaxCycles = 1000 },
			wantKind: trap.CycleBudgetExceeded,
		},
	}

	modes := map[string]func(*Config){
		"interp":     func(c *Config) { c.DisableTranslation = true },
		"translated": func(c *Config) { c.HotThreshold = 1; c.TraceThreshold = 3 },
	}

	for _, tc := range cases {
		for mname, mtweak := range modes {
			t.Run(tc.name+"/"+mname, func(t *testing.T) {
				cfg := DefaultConfig()
				mtweak(&cfg)
				if tc.tweak != nil {
					tc.tweak(&cfg)
				}
				f, m := runForFault(t, tc.src, tc.patch, cfg)
				if f.Kind != tc.wantKind {
					t.Fatalf("kind = %s, want %s (fault: %v)", f.Kind, tc.wantKind, f)
				}
				if tc.wantPC != 0 && f.PC != tc.wantPC {
					t.Fatalf("pc = %#x, want %#x (fault: %v)", f.PC, tc.wantPC, f)
				}
				if tc.wantAddr != 0 && f.Addr != tc.wantAddr {
					t.Fatalf("addr = %#x, want %#x (fault: %v)", f.Addr, tc.wantAddr, f)
				}
				if f.Cycle == 0 {
					t.Fatalf("fault carries no cycle count: %v", f)
				}
				if f.Injected {
					t.Fatalf("organic fault marked injected: %v", f)
				}
				// Per-kind count, not the total: in translated mode a
				// region containing the bad instruction may additionally
				// record a translation failure before falling back.
				if got := m.stats.Traps.Get(tc.wantKind); got != 1 {
					t.Fatalf("Stats.Traps.Get(%s) = %d, want 1 (%s)", tc.wantKind, got, m.stats.Traps.String())
				}
			})
		}
	}
}

// TestMisalignedAccessDefaultOff checks the default (paper-faithful)
// behaviour: unaligned data accesses are handled in hardware, so a
// misaligned in-range load succeeds unless StrictAlign is set.
func TestMisalignedAccessDefaultOff(t *testing.T) {
	src := "main:\n\tlui t0, 0x10\n\taddi t0, t0, 0x401\n\tld a0, 0(t0)\n\tecall\n"
	res, _ := runSrc(t, src, DefaultConfig())
	if res.Exit.Code != 0 {
		t.Fatalf("misaligned load with StrictAlign off: exit %d", res.Exit.Code)
	}
}

// TestTrapErrorText checks the rendered fault is self-describing: kind,
// pc and the detail all appear in Error().
func TestTrapErrorText(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DisableTranslation = true
	f, _ := runForFault(t, "main:\n\tlui t0, 0x9000\n\tjr t0\n", nil, cfg)
	msg := f.Error()
	for _, want := range []string{"invalid-branch-target", "0x9000000"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("fault text %q missing %q", msg, want)
		}
	}
}

// TestFaultInjectionDeterminism runs the same guest with the same
// injection seed twice and requires identical faults, then with a
// different seed and requires the PRNG stream to actually differ
// (observable as a different faulting cycle or a clean run).
func TestFaultInjectionDeterminism(t *testing.T) {
	// The loop body does real loads and stores: cache-fault injection
	// hooks architectural bus accesses, so a pure-ALU guest would never
	// give the injector a chance to fire.
	src := `
main:
	li t0, 2000
	lui t1, 0x11
loop:
	sd t0, 0(t1)
	ld t2, 0(t1)
	addi t0, t0, -1
	bnez t0, loop
	li a0, 0
	ecall
`
	run := func(seed uint64) *trap.Fault {
		cfg := DefaultConfig()
		cfg.FaultInject = &FaultInject{Seed: seed, CacheFaultRate: 0.01}
		p, err := riscv.Assemble(src)
		if err != nil {
			t.Fatal(err)
		}
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Release()
		if err := m.Load(p); err != nil {
			t.Fatal(err)
		}
		_, rerr := m.Run()
		if rerr == nil {
			return nil
		}
		f := trap.As(rerr)
		if f == nil {
			t.Fatalf("non-trap error under injection: %v", rerr)
		}
		if !f.Injected || !f.Transient() {
			t.Fatalf("injected fault not marked transient: %v", f)
		}
		return f
	}

	a1, a2 := run(7), run(7)
	if a1 == nil || a2 == nil {
		t.Fatal("expected seed 7 to inject a cache fault in this guest")
	}
	if a1.Kind != a2.Kind || a1.PC != a2.PC || a1.Addr != a2.Addr || a1.Cycle != a2.Cycle {
		t.Fatalf("same seed, different faults:\n  %v\n  %v", a1, a2)
	}
	for seed := uint64(8); seed < 24; seed++ {
		b := run(seed)
		if b == nil || b.Cycle != a1.Cycle || b.Addr != a1.Addr {
			return // stream diverged, as it must
		}
	}
	t.Fatal("16 different seeds reproduced the seed-7 fault exactly; injector ignores the seed")
}

// TestInjectedTranslationFailureFallsBack checks graceful degradation:
// with translation failure injection at 100%, every hot region falls
// back to interpretation and the guest still runs to completion with
// correct architectural results.
func TestInjectedTranslationFailureFallsBack(t *testing.T) {
	src := `
main:
	li t0, 100
	li a0, 0
loop:
	addi a0, a0, 3
	addi t0, t0, -1
	bnez t0, loop
	ecall
`
	cfg := DefaultConfig()
	cfg.HotThreshold = 1
	cfg.TraceThreshold = 3
	cfg.FaultInject = &FaultInject{Seed: 1, TranslationFailureRate: 1}
	res, m := runSrc(t, src, cfg)
	if res.Exit.Code != 300 {
		t.Fatalf("exit = %d, want 300", res.Exit.Code)
	}
	if res.Stats.Blocks != 0 || res.Stats.Traces != 0 {
		t.Fatalf("translation succeeded despite 100%% injected failure: %d blocks, %d traces",
			res.Stats.Blocks, res.Stats.Traces)
	}
	if got := m.stats.Traps.Get(trap.TranslationFailure); got == 0 {
		t.Fatal("no translation-failure traps recorded")
	}
	// Injected failures are transient: the region must NOT be
	// blacklisted the way persistently untranslatable code is.
	blacklisted := 0
	for _, e := range m.trans {
		if e.noTrans {
			blacklisted++
		}
	}
	if blacklisted != 0 {
		t.Fatalf("injected translation failures blacklisted %d regions", blacklisted)
	}
}

// TestSpuriousInterruptInjection checks injected interrupts surface as
// transient SpuriousInterrupt faults (so the harness retry path can
// re-run them), not as the cooperative-stop ErrInterrupted.
func TestSpuriousInterruptInjection(t *testing.T) {
	src := "main:\n\tli t0, 100000\nloop:\n\taddi t0, t0, -1\n\tbnez t0, loop\n\tecall\n"
	cfg := DefaultConfig()
	cfg.DisableTranslation = true
	cfg.FaultInject = &FaultInject{Seed: 3, SpuriousInterruptRate: 0.5}
	p, err := riscv.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	if err := m.Load(p); err != nil {
		t.Fatal(err)
	}
	_, rerr := m.Run()
	if errors.Is(rerr, ErrInterrupted) {
		t.Fatalf("spurious-interrupt injection surfaced as ErrInterrupted, want a transient fault: %v", rerr)
	}
	f := trap.As(rerr)
	if f == nil || f.Kind != trap.SpuriousInterrupt {
		t.Fatalf("expected a spurious-interrupt fault, got %v", rerr)
	}
	if !f.Injected || !f.Transient() {
		t.Fatalf("spurious interrupt not marked injected+transient: %v", f)
	}
	if got := m.stats.Traps.Get(trap.SpuriousInterrupt); got == 0 {
		t.Fatal("no spurious-interrupt traps recorded")
	}
}

package dbt

import (
	"errors"
	"fmt"
	"testing"

	"ghostbusters/internal/riscv"
	"ghostbusters/internal/trap"
)

// A closed Interrupt channel aborts the run with ErrInterrupted once the
// dispatch loop polls it — the hook the harness uses for wall-clock
// timeouts and cancellation.
func TestRunInterrupt(t *testing.T) {
	src := `
main:
	li s1, 0
	li s2, 0
loop:
	add s2, s2, s1
	addi s1, s1, 1
	li t0, 1000000
	blt s1, t0, loop
	andi a0, s2, 0xff
	ecall
`
	prog, err := riscv.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	close(stop)
	cfg := DefaultConfig()
	cfg.Interrupt = stop
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(prog); err != nil {
		t.Fatal(err)
	}
	_, err = m.Run()
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("Run with closed Interrupt returned %v, want ErrInterrupted", err)
	}

	// Without the interrupt the same guest finishes normally.
	cfg.Interrupt = nil
	m2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Load(prog); err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Run(); err != nil {
		t.Fatalf("uninterrupted run failed: %v", err)
	}
}

// spinSrc is a hot loop that runs long enough for any budget or
// interrupt in these tests to fire while the loop is translated and
// traced.
const spinSrc = `
main:
	li s1, 0
	li s2, 0
	li t0, 50000000
loop:
	add s2, s2, s1
	addi s1, s1, 1
	blt s1, t0, loop
	andi a0, s2, 0xff
	ecall
`

// runSpin runs spinSrc under cfg and returns the run error (nil when
// the guest finished, which these tests treat as a failure).
func runSpin(t *testing.T, cfg Config) (*Machine, error) {
	t.Helper()
	prog, err := riscv.Assemble(spinSrc)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(prog); err != nil {
		t.Fatal(err)
	}
	_, runErr := m.Run()
	return m, runErr
}

// TestMaxCyclesStopsTranslatedLoop pins the quota contract the serving
// layer's cycle budgets rest on: a guest spinning in translated code
// must not coast past Config.MaxCycles. The dispatch loop checks the
// budget before every block, so the overshoot past the limit is bounded
// by a single block execution.
func TestMaxCyclesStopsTranslatedLoop(t *testing.T) {
	const limit = 100_000

	cfg := DefaultConfig()
	cfg.MaxCycles = limit
	m, err := runSpin(t, cfg)
	f := trap.As(err)
	if f == nil || f.Kind != trap.CycleBudgetExceeded {
		t.Fatalf("error %v, want a %s trap", err, trap.CycleBudgetExceeded)
	}
	if f.Cycle <= limit {
		t.Errorf("trap cycle %d did not pass the limit %d", f.Cycle, limit)
	}
	if m.stats.Translations == 0 {
		t.Error("loop was never translated; the test exercised only the interpreter")
	}
	// "Promptly" quantified: the overshoot is one block.
	if over := f.Cycle - limit; over > 5_000 {
		t.Errorf("run overshot the budget by %d cycles", over)
	}
}

// TestInterruptStopsTranslatedLoop does the same for the cancellation
// hook: a pending interrupt stops a guest spinning in translated code at
// the next poll, and the reported cycle is the machine's own — the
// property that makes job deadlines and drain cancellation prompt
// regardless of how hot the guest is.
func TestInterruptStopsTranslatedLoop(t *testing.T) {
	stop := make(chan struct{})
	close(stop)

	cfg := DefaultConfig()
	cfg.Interrupt = stop
	m, err := runSpin(t, cfg)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("error %v, want ErrInterrupted", err)
	}
	var at uint64
	if _, serr := fmt.Sscanf(err.Error(), "dbt: run interrupted at cycle %d", &at); serr != nil {
		t.Fatalf("cannot parse interrupt cycle from %q: %v", err, serr)
	}
	if at == 0 || at != m.Cycles() {
		t.Errorf("reported cycle %d, machine at %d", at, m.Cycles())
	}
}

// Package pipeline is the DBT engine's one mitigation step: a static
// table, indexed by core.Mode, of one function per mode that runs the
// poison analysis (core.AnalyzePins) on a block before scheduling and
// decides what to pin. The paper's four modes sit next to the
// mitigations ported from the related work (blanket load fencing,
// SFI-style address clamping, Blade-style minimal cuts); Apply is the
// only way in, and adding a mode means adding a table entry.
//
// Determinism contract: a mode may only mutate the block through
// deterministic iteration (program-order loops, sorted guard lists), so
// repeated applications to equal blocks yield byte-identical b.Edges,
// b.Insts and DOT renderings. Every mode must also be idempotent:
// applying it to an already-mitigated block changes nothing — modes
// that insert instructions mark them with ir.TempDest and skip accesses
// that already carry their rewrite.
package pipeline

import (
	"fmt"

	"ghostbusters/internal/core"
	"ghostbusters/internal/ir"
)

// mode is one entry of the mitigation table.
type mode struct {
	// fig4 marks the four modes the paper's Figure 4 compares;
	// harness.Fig4Modes derives from it, so the byte-identity and
	// -checkperf gates cover exactly these.
	fig4 bool
	// apply mitigates the block in place and returns the analysis
	// report with the guard edges it inserted. aud is nil when the
	// caller did not ask for provenance bookkeeping.
	apply func(b *ir.Block, aud *ir.AuditReport) core.Report
}

var modes = [...]mode{
	// Detection only; full speculation.
	// Rokicki DATE'20 baseline.
	core.ModeUnsafe: {fig4: true, apply: detectOnly},
	// Pin each risky access behind fine-grained guard edges.
	// Rokicki DATE'20, the paper's contribution.
	core.ModeGhostBusters: {fig4: true, apply: ghostBusters},
	// Forbid all speculation across each implicated guard.
	// Rokicki DATE'20 fence baseline (lfence-on-detect).
	core.ModeFence: {fig4: true, apply: fence},
	// Disable both speculation mechanisms globally.
	// Rokicki DATE'20 no-speculation baseline.
	core.ModeNoSpeculation: {fig4: true, apply: noSpec},
	// Pin every load; no load ever executes speculatively.
	// Blanket LOADLFENCE strawman (Bălucea & Irofti catalog).
	core.ModeLoadFence: {apply: loadFence},
	// Mask risky addresses with an inserted predicate chain.
	// Venkman/Swivel SFI, SLH-style masking.
	core.ModeSFIClamp: {apply: sfiClamp},
	// Min-cut pin placement over the poison data-flow graph.
	// Blade (Vassena et al. POPL'21).
	core.ModeFenceMin: {apply: fenceMin},
}

// Apply mitigates the block in place under the given mode and returns
// the analysis report, with GuardEdges counting the guard edges the
// mode inserted. A non-nil aud receives the provenance audit of the
// block (ir.AuditReport), including that guard-edge count.
func Apply(b *ir.Block, m core.Mode, aud *ir.AuditReport) (core.Report, error) {
	if int(m) >= len(modes) {
		return core.Report{}, fmt.Errorf("pipeline: no mitigation for mode %v", m)
	}
	rep := modes[m].apply(b, aud)
	if aud != nil {
		aud.GuardEdges = rep.GuardEdges
	}
	return rep, nil
}

// Modes returns every mode in mode-value order. Harness matrices,
// torture tests and the leakage matrix derive their mode lists from
// this, so a new table entry appears everywhere automatically.
func Modes() []core.Mode {
	out := make([]core.Mode, len(modes))
	for m := range modes {
		out[m] = core.Mode(m)
	}
	return out
}

// Fig4Modes returns the modes of the paper's Figure 4 comparison, in
// mode-value order (unsafe, ghostbusters, fence, nospec).
func Fig4Modes() []core.Mode {
	var out []core.Mode
	for m := range modes {
		if modes[m].fig4 {
			out = append(out, core.Mode(m))
		}
	}
	return out
}

package harness

import (
	"context"
	"io"
	"testing"

	"ghostbusters/internal/dbt"
	"ghostbusters/internal/obs"
)

// Attaching a tracer must not perturb the experiment: every cell's
// cycles and statistics, and so the Figure 4 table and CSV, are
// identical with tracing off and with full speculation-level tracing
// on. Tracers are single-threaded, so the traced run pins Workers to
// 1 — sharing one tracer across parallel cells is a usage error, not
// something this test legitimises.
func TestFig4OutputUnchangedByTracing(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full benchmark matrix twice")
	}
	n := 6
	run := func(tr *obs.Tracer) ([]*Row, string, string) {
		t.Helper()
		cfg := dbt.DefaultConfig()
		cfg.Tracer = tr
		r := &Runner{Workers: 1, Artifacts: NewArtifacts()}
		rows, err := r.Fig4(context.Background(), cfg, Fig4Modes, n)
		if err != nil {
			t.Fatalf("fig4 (traced=%v): %v", tr != nil, err)
		}
		return rows, FormatRows(rows, Fig4Modes), CSV(rows, Fig4Modes)
	}

	rowsPlain, tablePlain, csvPlain := run(nil)

	sink, err := obs.SinkFor("jsonl", io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.New(obs.LevelSpec, sink)
	rowsTraced, tableTraced, csvTraced := run(tr)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	if tablePlain != tableTraced {
		t.Errorf("Figure 4 table changed under tracing:\noff:\n%s\non:\n%s", tablePlain, tableTraced)
	}
	if csvPlain != csvTraced {
		t.Errorf("Figure 4 CSV changed under tracing:\noff:\n%s\non:\n%s", csvPlain, csvTraced)
	}
	if len(rowsPlain) != len(rowsTraced) {
		t.Fatalf("row counts differ: %d vs %d", len(rowsPlain), len(rowsTraced))
	}
	for i := range rowsPlain {
		off, on := rowsPlain[i], rowsTraced[i]
		for _, m := range Fig4Modes {
			if off.Cycles[m] != on.Cycles[m] {
				t.Errorf("%s (%s): cycles %d untraced, %d traced",
					off.Name, m, off.Cycles[m], on.Cycles[m])
			}
			if off.Stats[m] != on.Stats[m] {
				t.Errorf("%s (%s): stats diverge under tracing:\noff: %+v\non:  %+v",
					off.Name, m, off.Stats[m], on.Stats[m])
			}
		}
	}
}

// benchFig4 runs the full Figure 4 matrix once per iteration, with the
// tracer built by mk attached to every cell (sequentially: tracers are
// single-threaded).
func benchFig4(b *testing.B, mk func() *obs.Tracer) {
	arts := NewArtifacts()
	for i := 0; i < b.N; i++ {
		cfg := dbt.DefaultConfig()
		tr := mk()
		cfg.Tracer = tr
		r := &Runner{Workers: 1, Artifacts: arts}
		if _, err := r.Fig4(context.Background(), cfg, Fig4Modes, 0); err != nil {
			b.Fatal(err)
		}
		if tr != nil {
			if err := tr.Close(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// The pair below documents the tracing overhead budget: block-level
// tracing of the whole Figure 4 experiment must stay within ~10% of
// the untraced wall clock (compare with benchstat).
func BenchmarkFig4Untraced(b *testing.B) {
	benchFig4(b, func() *obs.Tracer { return nil })
}

func BenchmarkFig4BlockTraced(b *testing.B) {
	benchFig4(b, func() *obs.Tracer {
		sink, err := obs.SinkFor("jsonl", io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		return obs.New(obs.LevelBlock, sink)
	})
}

func BenchmarkFig4SpecTraced(b *testing.B) {
	benchFig4(b, func() *obs.Tracer {
		sink, err := obs.SinkFor("jsonl", io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		return obs.New(obs.LevelSpec, sink)
	})
}

package harness

import (
	"context"
	"testing"

	"ghostbusters/internal/dbt"
	"ghostbusters/internal/tcache"
)

// The persistent translation cache must be invisible in guest time: a
// cold cached sweep, a fully warm sweep and an uncached sweep all
// render the same Figure 4 byte for byte. Only the engine-side counters
// (Translations, TCacheHits/Misses) may differ.
func TestTransCacheDifferential(t *testing.T) {
	n := 8
	if testing.Short() {
		n = 4
	}

	runFig4 := func(tc *tcache.Cache, arts *Artifacts) ([]*Row, string, string) {
		t.Helper()
		r := &Runner{Artifacts: arts, TransCache: tc}
		rows, err := r.Fig4(context.Background(), dbt.DefaultConfig(), Fig4Modes, n)
		if err != nil {
			t.Fatalf("fig4 (tcache=%v): %v", tc != nil, err)
		}
		return rows, FormatRows(rows, Fig4Modes), CSV(rows, Fig4Modes)
	}

	rowsBase, tableBase, csvBase := runFig4(nil, NewArtifacts())
	tc := tcache.New("")
	arts := NewArtifacts()
	rowsCold, tableCold, csvCold := runFig4(tc, arts)
	rowsWarm, tableWarm, csvWarm := runFig4(tc, arts)

	hits, misses, _ := tc.Stats()
	if misses == 0 {
		t.Fatal("cold sweep never missed — the cache was not consulted")
	}
	if hits < misses {
		t.Errorf("warm sweep hit only %d of %d compiled regions", hits, misses)
	}
	for i := range rowsWarm {
		for _, m := range Fig4Modes {
			if tr := rowsWarm[i].Stats[m].Translations; tr != 0 {
				t.Errorf("%s (%s): warm sweep still compiled %d regions", rowsWarm[i].Name, m, tr)
			}
		}
	}

	for name, got := range map[string][2]string{
		"cold": {tableCold, csvCold},
		"warm": {tableWarm, csvWarm},
	} {
		if got[0] != tableBase {
			t.Errorf("%s cached Figure 4 table differs from uncached:\n%s\nvs\n%s", name, got[0], tableBase)
		}
		if got[1] != csvBase {
			t.Errorf("%s cached Figure 4 CSV differs from uncached:\n%s\nvs\n%s", name, got[1], csvBase)
		}
	}
	zero := func(s dbt.Stats) dbt.Stats {
		s.Translations = 0
		s.TCacheHits = 0
		s.TCacheMisses = 0
		return s
	}
	for i := range rowsBase {
		for _, m := range Fig4Modes {
			b, c, w := rowsBase[i], rowsCold[i], rowsWarm[i]
			if b.Cycles[m] != c.Cycles[m] || b.Cycles[m] != w.Cycles[m] {
				t.Errorf("%s (%s): cycles %d uncached, %d cold, %d warm",
					b.Name, m, b.Cycles[m], c.Cycles[m], w.Cycles[m])
			}
			if zero(c.Stats[m]) != zero(b.Stats[m]) || zero(w.Stats[m]) != zero(b.Stats[m]) {
				t.Errorf("%s (%s): stats diverge under the cache:\nuncached: %+v\ncold:     %+v\nwarm:     %+v",
					b.Name, m, zero(b.Stats[m]), zero(c.Stats[m]), zero(w.Stats[m]))
			}
		}
	}
}

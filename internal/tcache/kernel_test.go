package tcache_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"ghostbusters/internal/core"
	"ghostbusters/internal/dbt"
	"ghostbusters/internal/harness"
	"ghostbusters/internal/polybench"
	"ghostbusters/internal/tcache"
	"ghostbusters/internal/vliw"
)

// runGemm runs the gemm kernel at size n (0 = the Figure 4 size) under
// modes with tc as the translation cache, so a cold tc publishes one
// real document per mode.
func runGemm(tb testing.TB, tc *tcache.Cache, n int, modes []core.Mode) {
	tb.Helper()
	gemm, err := polybench.ByName("gemm")
	if err != nil {
		tb.Fatal(err)
	}
	r := &harness.Runner{Artifacts: harness.NewArtifacts(), TransCache: tc}
	if _, err := r.RunKernel(context.Background(), gemm, n, dbt.DefaultConfig(), modes); err != nil {
		tb.Fatal(err)
	}
	if err := tc.Err(); err != nil {
		tb.Fatal(err)
	}
}

// gemmDocument publishes the ghostbusters-mode gemm document at size n
// into a fresh directory and returns the directory, key and bytes.
func gemmDocument(tb testing.TB, n int) (string, tcache.Key, []byte) {
	tb.Helper()
	dir := tb.TempDir()
	tc := tcache.New(dir)
	runGemm(tb, tc, n, []core.Mode{core.ModeGhostBusters})
	keys := docKeys(tb, dir)
	if len(keys) != 1 {
		tb.Fatalf("one mode published %d documents", len(keys))
	}
	doc, err := os.ReadFile(tcache.DocPath(tc, keys[0]))
	if err != nil {
		tb.Fatal(err)
	}
	return dir, keys[0], doc
}

func docKeys(tb testing.TB, dir string) []tcache.Key {
	tb.Helper()
	keys, err := tcache.DocKeys(dir)
	if err != nil {
		tb.Fatal(err)
	}
	return keys
}

// Every region a real kernel run publishes — blocks and traces, with
// recoveries, pool constants and guest PCs, under each Figure 4 mode —
// must come back from disk equal in every exported field.
func TestDiskRoundTripKernel(t *testing.T) {
	dir := t.TempDir()
	published := tcache.New(dir)
	runGemm(t, published, 8, harness.Fig4Modes)

	keys := docKeys(t, dir)
	if len(keys) != len(harness.Fig4Modes) {
		t.Fatalf("%d modes published %d documents", len(harness.Fig4Modes), len(keys))
	}
	loaded := tcache.New(dir)
	for _, k := range keys {
		want, got := tcache.Regions(published, k), tcache.Regions(loaded, k)
		if len(want) == 0 {
			t.Fatalf("%s: the run published no regions", k.Mode)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d regions published, %d loaded", k.Mode, len(want), len(got))
		}
		for i := range want {
			if d := tcache.RegionDiff(want[i], got[i]); d != "" {
				t.Errorf("%s region %#x: %s", k.Mode, want[i].PC, d)
			}
		}
	}
	if err := loaded.Err(); err != nil {
		t.Fatal(err)
	}
}

// Arbitrary bytes at a key's document path must never panic the
// loader. The only outcomes are a cold store (with the fault in Err) or
// well-formed regions that survive another persist → load unchanged.
func FuzzTCacheDocument(f *testing.F) {
	_, k, doc := gemmDocument(f, 4)
	f.Add(doc)
	for i := 0; i < 16; i++ {
		f.Add(doc[:len(doc)*i/16])
	}
	f.Add(doc[:len(doc)-1])

	dir := f.TempDir()
	path := tcache.DocPath(tcache.New(dir), k)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		c := tcache.New(dir)
		regions := tcache.Regions(c, k)
		if len(regions) > 0 && c.Err() != nil {
			t.Fatalf("served %d regions from a document that failed: %v", len(regions), c.Err())
		}
		run := c.Run(k)
		for _, rg := range regions {
			if rg.Block == nil || rg.Lo > rg.Hi {
				t.Fatalf("malformed region served: %+v", rg)
			}
			if run.Lookup(rg.PC, rg.Trace, rg.NoMemSpec) != rg {
				t.Fatalf("region %#x not served under its own shape", rg.PC)
			}
			if _, err := vliw.EncodeBlock(rg.Block); err != nil {
				t.Fatalf("served block does not re-encode: %v", err)
			}
		}
		got, err := tcache.Reencode(k, regions)
		if err != nil {
			t.Fatalf("accepted regions do not persist: %v", err)
		}
		for i := range regions {
			if d := tcache.RegionDiff(regions[i], got[i]); d != "" {
				t.Fatalf("region %#x changed in another round trip: %s", regions[i].PC, d)
			}
		}
	})
}

// BenchmarkTCacheLoad measures the disk layer of a restarted sweep:
// opening one real Figure 4 document (gemm at its Figure 4 size,
// ghostbusters mode) in a fresh cache, as the first machine of a new
// process does. ns/region divides by the regions the document holds.
func BenchmarkTCacheLoad(b *testing.B) {
	dir, k, _ := gemmDocument(b, 0)
	regions := len(tcache.Regions(tcache.New(dir), k))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := tcache.New(dir)
		if c.Run(k).Lookup(0, false, false) != nil || c.Err() != nil {
			b.Fatal("load failed")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*regions), "ns/region")
}

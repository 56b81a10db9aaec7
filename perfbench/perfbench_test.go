package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"ghostbusters/internal/core"
	"ghostbusters/internal/harness"
	"ghostbusters/internal/hspan"
	"ghostbusters/internal/polybench"
)

func TestStreamIsDeterministicPerSeedAndClient(t *testing.T) {
	kernels := kernelNames()
	draw := func(seed uint64, tenant string) []jobSpec {
		s := newStream(seed, tenant, kernels)
		out := make([]jobSpec, 200)
		for i := range out {
			out[i] = s.next()
		}
		return out
	}
	for _, tenant := range []string{tenantLab, tenantMetered} {
		if a, b := draw(7, tenant), draw(7, tenant); !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: seed 7 gave two different job sequences", tenant)
		}
		if reflect.DeepEqual(draw(7, tenant), draw(8, tenant)) {
			t.Fatalf("%s: seeds 7 and 8 gave the same job sequence", tenant)
		}
	}
	lab, metered := draw(7, tenantLab), draw(7, tenantMetered)
	for _, j := range metered {
		if j.Kernel == "" || j.Tenant != tenantMetered {
			t.Fatalf("metered stream produced %+v, want kernel sweeps only", j)
		}
	}
	var labKernels []string
	pocs := map[jobSpec]int{}
	for start := 0; start < len(lab); start += detectOneIn {
		detects := 0
		for _, j := range lab[start : start+detectOneIn] {
			if j.Kernel == "" {
				detects++
				pocs[j]++
			} else {
				labKernels = append(labKernels, j.Kernel)
			}
		}
		if detects != 1 {
			t.Fatalf("lab jobs %d..%d hold %d detect runs, want 1", start, start+detectOneIn-1, detects)
		}
	}
	// 50 detect runs: every variant and mode 12 or 13 times.
	if len(pocs) != 4 {
		t.Fatalf("detect runs cover %d variant/mode pairs, want 4", len(pocs))
	}
	for j, n := range pocs {
		if n < 12 || n > 13 {
			t.Fatalf("%s (%s) drawn %d times in 50 detect runs, want 12 or 13", j.Variant, j.Mode, n)
		}
	}
	// Every deal of the deck serves each kernel exactly once.
	for start := 0; start+len(kernels) <= len(labKernels); start += len(kernels) {
		deal := append([]string(nil), labKernels[start:start+len(kernels)]...)
		sort.Strings(deal)
		want := append([]string(nil), kernels...)
		sort.Strings(want)
		if !reflect.DeepEqual(deal, want) {
			t.Fatalf("deal at %d = %v, want every kernel once", start, deal)
		}
	}
}

func TestMath(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {10, 1}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %v, want 2", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	// A failed operation counts as beyond the tail.
	withFail := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, math.Inf(1)}
	if got := percentile(withFail, 90); got != 9 {
		t.Errorf("p90 with one failure in ten = %v, want 9", got)
	}
	if got := finite(percentile(withFail, 100)); got != math.MaxFloat64 {
		t.Errorf("p100 with a failure = %v, want MaxFloat64", got)
	}
	if got := geomean([]float64{1, 4, 16}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(1,4,16) = %v, want 4", got)
	}
	if got := geomean([]float64{2, 0, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(2,0,8) = %v, want 4 (non-positive entries skipped)", got)
	}
	if got := ratio(3, 4); got != 0.75 {
		t.Errorf("ratio(3,4) = %v", got)
	}
	if got := ratio(3, 0); got != 0 {
		t.Errorf("ratio(3,0) = %v, want 0", got)
	}
	// A one-second window with no completed cell is a stall, not the
	// fastest sweep.
	if got := msPerSweep([]int{168, 0, 84}); got[0] != 500 || !math.IsInf(got[1], 1) || got[2] != 1000 {
		t.Errorf("msPerSweep(168, 0, 84) = %v, want [500 +Inf 1000]", got)
	}
	if got := median(msPerSweep([]int{84, 0, 0})); !math.IsInf(got, 1) {
		t.Errorf("median sweep with two stalled windows of three = %v, want +Inf", got)
	}
	// Slowdowns are percent of unsafe cycles: rows at 1x and 4x
	// ghostbusters/unsafe give a 200% geomean.
	row := func(unsafe, gb uint64) *harness.Row {
		return &harness.Row{Cycles: map[core.Mode]uint64{core.ModeUnsafe: unsafe, core.ModeGhostBusters: gb,
			core.ModeFence: unsafe, core.ModeNoSpeculation: unsafe}}
	}
	sd := slowdowns([]*harness.Row{row(100, 100), row(50, 200)})
	if math.Abs(sd[core.ModeGhostBusters]-200) > 1e-9 || sd[core.ModeUnsafe] != 100 || sd[core.ModeNoSpeculation] != 100 {
		t.Errorf("slowdowns = %v, want ghostbusters 200%%, unsafe and nospec 100%%", sd)
	}
}

// The traced benches must key the translation cache exactly like the
// harness, so traced and untraced cells share entries.
func TestInputSaltMatchesHarness(t *testing.T) {
	k, err := polybench.ByName("gemm")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := k.Make(k.DefaultN)
	if err != nil {
		t.Fatal(err)
	}
	art, err := harness.BuildArtifact(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := inputSalt(spec); got != art.Salt {
		t.Fatalf("inputSalt = %s, harness salt %s", got, art.Salt)
	}
}

// A traced run's spans are one span/v1 stream that the repository's
// span tools read back as a tree, with one unit ID per root.
func TestSpansAreSpanV1(t *testing.T) {
	sink := &memSink{}
	tr := hspan.New(sink)
	u := newUnit(tr, "cell", "sweep1/gemm/unsafe")
	sp := u.root.Child("dbt.run")
	rr := u.end(sp)
	sp.Emit("dbt.translate", rr.Start, rr.Start+1)
	u.end(u.root)
	if got := u.covered(); got != nsOf(rr) {
		t.Errorf("covered = %d, want the dbt.run span's %d", got, nsOf(rr))
	}
	if got := u.sum("dbt.translate"); got != 1 {
		t.Errorf("sum(dbt.translate) = %d, want 1", got)
	}
	o := &options{out: t.TempDir(), workload: "fig4-warm", seed: 3}
	if err := writeSpans(o, tr, sink); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join(o.out, "spans", "fig4-warm-seed3.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := hspan.ParseJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	roots := hspan.BuildTree(recs)
	if len(recs) != 3 || len(roots) != 1 || roots[0].Name != "cell" || len(roots[0].Children) != 1 {
		t.Fatalf("read back %d records, %d roots: want one cell root over dbt.run over dbt.translate", len(recs), len(roots))
	}
	if a, ok := roots[0].Attr("unit"); !ok || a.Str != "sweep1/gemm/unsafe" {
		t.Errorf("root unit attribute = %+v, %v", a, ok)
	}
}

// benchmarkJSON is the part of BENCHMARK.json the tests read.
type benchmarkJSON struct {
	RunSeconds int               `json:"run_seconds"`
	EndToEnd   []benchmarkMetric `json:"end_to_end"`
	PerLayer   []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	for _, c := range []struct {
		kind string
		got  map[string]string
		want []benchmarkMetric
	}{{"end-to-end", endToEndUnits, bj.EndToEnd}, {"per-layer", layerUnits, bj.PerLayer}} {
		want := map[string]string{}
		for _, m := range c.want {
			want[m.Name] = m.Unit
		}
		if !reflect.DeepEqual(c.got, want) {
			t.Errorf("%s metrics differ from BENCHMARK.json:\n got %v\nwant %v", c.kind, c.got, want)
		}
	}
}

// Over a full-length run of the serve-mixed closed loop, the metered
// tenant is never refused (403 or 429) and no job fails, so error_rate
// is 0 at seed state.
func TestMeteredTenantNeverRefused(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the serve-mixed closed loop for a full run")
	}
	bj := readBenchmarkJSON(t)
	o := &options{root: "..", out: t.TempDir(), workload: "serve-mixed", seed: 1,
		seconds: time.Duration(bj.RunSeconds) * time.Second}
	var tl tally
	w := newServeRun(o, &tl)
	defer w.drop()
	if err := w.prepare(); err != nil {
		t.Fatal(err)
	}
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	results, _, _ := w.measure(sampleMemory())
	var metered int
	for _, r := range results {
		if r.spec.Tenant != tenantMetered {
			continue
		}
		metered++
		if r.rejected {
			t.Errorf("metered job %+v refused at admission", r.spec)
		}
	}
	if metered == 0 {
		t.Fatal("the metered tenant sent no jobs")
	}
	if n := tl.failures(); n != 0 {
		t.Fatalf("%d operations failed", n)
	}
}

// What the metered tenant costs the shared tcache: the same seeded loop
// with and without its quota. Metered jobs miss the cache, because each
// one's MaxCycles (its remaining allowance) is part of the cache key,
// so the server translates more and serves fewer jobs per second.
func TestMeteredTenantCost(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the serve-mixed closed loop twice")
	}
	bj := readBenchmarkJSON(t)
	run := func(metered bool) (mixFigures, float64) {
		o := &options{root: "..", out: t.TempDir(), workload: "serve-mixed", seed: 1,
			seconds: time.Duration(bj.RunSeconds) * time.Second}
		var tl tally
		w := newServeRun(o, &tl)
		w.metered = metered
		defer w.drop()
		if err := w.prepare(); err != nil {
			t.Fatal(err)
		}
		if err := w.setup(); err != nil {
			t.Fatal(err)
		}
		results, elapsed, _ := w.measure(sampleMemory())
		if n := tl.failures(); n != 0 {
			t.Fatalf("metered=%v: %d operations failed", metered, n)
		}
		return mixOf(results), float64(len(results)) / elapsed
	}
	with, withRate := run(true)
	without, withoutRate := run(false)
	t.Logf("with the quota: hit ratio metered %.3f, unmetered %.3f; %d translations; %.1f jobs/s",
		with.hitRatio("metered"), with.hitRatio("kernel", "detect"), with.translations(), withRate)
	t.Logf("without:        hit ratio metered %.3f, unmetered %.3f; %d translations; %.1f jobs/s",
		without.hitRatio("metered"), without.hitRatio("kernel", "detect"), without.translations(), withoutRate)
	if with.hitRatio("metered") >= without.hitRatio("metered") {
		t.Errorf("metered jobs hit the tcache as often with the quota (%.3f) as without (%.3f)",
			with.hitRatio("metered"), without.hitRatio("metered"))
	}
	if with.translations() <= without.translations() {
		t.Errorf("%d translations with the quota, %d without: want more with it", with.translations(), without.translations())
	}
}

package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ghostbusters/internal/attack"
	"ghostbusters/internal/core"
	"ghostbusters/internal/dbt"
	"ghostbusters/internal/harness"
	"ghostbusters/internal/hspan"
	"ghostbusters/internal/tcache"
)

// cacheStart is how a fig4 workload's caches start each sweep.
type cacheStart int

const (
	// warm shares one Artifacts and one in-memory tcache across every
	// sweep, both filled during set-up.
	warm cacheStart = iota
	// cold gives every sweep fresh Artifacts and no tcache (a plain
	// `gbbench -exp fig4`).
	cold
	// restart gives every sweep fresh Artifacts and a fresh tcache over a
	// directory set-up filled (a second `gbbench -tcache-dir` run).
	restart
)

// sweepCells is the size of one Figure 4 matrix: 19 kernels and two
// PoCs under the four Figure 4 modes.
const sweepCells = 84

// fig4 is one fig4-* workload: the matrix, the expected cycles, and the
// caches set-up prepared.
type fig4 struct {
	o        *options
	t        *tally
	start    cacheStart
	base     dbt.Config
	modes    []core.Mode
	orders   *rand.Rand        // draws each sweep's bench order
	expected map[string]uint64 // "bench|mode" → simulated cycles (BENCH_fig4.json)

	// warm: the shared caches. restart: the filled directory.
	arts  *harness.Artifacts
	tarts *tracedArtifacts
	tc    *tcache.Cache
	dir   string
	// fill is set-up's traced sweep, which on fig4-warm is the one that
	// builds the artifacts.
	fill *sweepTrace
}

// fig4Benches is the Figure 4 bench list in the paper's order.
var fig4Benches = harness.Fig4Benches(0)

func runFig4(o *options, t *tally, start cacheStart) (metrics, error) {
	expected, err := readExpected(filepath.Join(o.root, "BENCH_fig4.json"))
	if err != nil {
		return nil, err
	}
	f := &fig4{o: o, t: t, start: start, base: dbt.DefaultConfig(), modes: harness.Fig4Modes, expected: expected}
	if len(f.modes)*len(fig4Benches) != sweepCells || len(expected) != sweepCells {
		return nil, fmt.Errorf("matrix is %d×%d with %d expected cells, want %d",
			len(fig4Benches), len(f.modes), len(expected), sweepCells)
	}
	f.orders = rand.New(rand.NewPCG(o.seed, 0xf164))
	defer f.drop()

	// The leak verdicts are checked once, outside the timed set-up.
	if err := checkLeaks(t, f.base); err != nil {
		return nil, err
	}
	setupS, err := setup(f.drop, f.setup)
	if err != nil {
		return nil, err
	}
	if o.trace {
		return f.traced(setupS)
	}
	return f.untraced(setupS)
}

// setup prepares the caches the measured sweeps start from, running
// one sweep of each kind the run will time so lazy host state (pools,
// heap) is warm too.
func (f *fig4) setup() error {
	switch f.start {
	case warm:
		f.arts, f.tarts, f.tc = harness.NewArtifacts(), newTracedArtifacts(), tcache.New("")
	case restart:
		dir, err := os.MkdirTemp(f.o.out, "tcache-")
		if err != nil {
			return err
		}
		f.dir = dir
		// The fill is the first `gbbench -tcache-dir` invocation.
		f.tc = tcache.New(dir)
	}
	order := f.order()
	f.sweep(order)
	if f.o.trace {
		f.fill = f.tracedSweep(hspan.New(nil), 0, order)
	}
	if f.start == restart {
		if err := f.tc.Err(); err != nil {
			return fmt.Errorf("filling %s: %w", f.dir, err)
		}
		f.tc = nil
	}
	return nil
}

// drop releases the caches of the last set-up and removes its directory.
func (f *fig4) drop() {
	f.arts, f.tarts, f.tc, f.fill = nil, nil, nil, nil
	if f.dir != "" {
		os.RemoveAll(f.dir) // best effort: the directory lies under the output directory
		f.dir = ""
	}
}

// caches returns the artifact and translation caches one sweep starts with.
func (f *fig4) caches() (*harness.Artifacts, *tracedArtifacts, *tcache.Cache) {
	switch {
	case f.start == warm:
		return f.arts, f.tarts, f.tc
	case f.start == restart && f.tc != nil: // set-up's fill sweeps
		return harness.NewArtifacts(), newTracedArtifacts(), f.tc
	case f.start == restart:
		return harness.NewArtifacts(), newTracedArtifacts(), tcache.New(f.dir)
	}
	return harness.NewArtifacts(), newTracedArtifacts(), nil
}

// order draws the bench order of the next sweep (indices into
// fig4Benches). The order sets which cells the two workers run side by
// side and which set the sweep's tail. One fixed order moved fig4-warm's
// median sweep by up to 15% on a 2-CPU host, so every sweep draws its
// own and a run's median spans many orders rather than one per seed.
func (f *fig4) order() []int { return f.orders.Perm(len(fig4Benches)) }

// sweep runs the whole matrix once through harness.Runner in the given
// bench order, checks every cell (failed and wrong cells are counted in
// the tally) and returns the rows and the wall time.
func (f *fig4) sweep(order []int) ([]*harness.Row, time.Duration) {
	arts, _, tc := f.caches()
	benches := make([]harness.Bench, len(order))
	for i, bi := range order {
		benches[i] = fig4Benches[bi]
	}
	r := &harness.Runner{Workers: workers, Artifacts: arts, TransCache: tc}
	t0 := time.Now()
	rows, err := r.RunMatrix(context.Background(), f.base, benches, f.modes)
	wall := time.Since(t0)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: sweep: %v\n", err)
	}
	f.checkRows(rows, order)
	return rows, wall
}

// checkRows counts every cell: it must have run and its simulated
// cycles must equal BENCH_fig4.json exactly (the harness has already
// compared kernel outputs with their Go references).
func (f *fig4) checkRows(rows []*harness.Row, order []int) {
	for bi := range fig4Benches {
		var row *harness.Row
		if bi < len(rows) {
			row = rows[bi]
		}
		for _, m := range f.modes {
			name := fig4Benches[order[bi]].Name
			if row == nil || row.Name != name {
				f.t.fail("%s (%s): cell did not run", name, m)
				continue
			}
			got, ok := row.Cycles[m]
			want := f.expected[name+"|"+m.String()]
			f.t.check(ok && got == want, "%s (%s): %d cycles, BENCH_fig4.json has %d", name, m, got, want)
		}
	}
}

// slowdowns returns the geometric-mean slowdown of each mode against
// unsafe over the matrix rows, in percent.
func slowdowns(rows []*harness.Row) map[core.Mode]float64 {
	out := map[core.Mode]float64{}
	for _, m := range harness.Fig4Modes {
		var rs []float64
		for _, r := range rows {
			rs = append(rs, ratio(float64(r.Cycles[m]), float64(r.Cycles[core.ModeUnsafe])))
		}
		out[m] = 100 * geomean(rs)
	}
	return out
}

// untraced is the end-to-end measurement: whole sweeps until the
// measured phase is over.
func (f *fig4) untraced(setupS float64) (metrics, error) {
	var sweepMS, cellMS []float64
	var rows []*harness.Row
	cells := 0
	mem := sampleMemory()
	t0 := time.Now()
	for len(sweepMS) == 0 || time.Since(t0) < f.o.seconds {
		rs, wall := f.sweep(f.order())
		rows = rs
		sweepMS = append(sweepMS, ms(wall))
		for _, r := range rs {
			for _, m := range f.modes {
				if ns, ok := r.HostNS[m]; ok {
					cellMS = append(cellMS, float64(ns)/1e6)
					cells++
				} else {
					cellMS = append(cellMS, math.Inf(1)) // a failed cell misses any limit
				}
			}
		}
	}
	elapsed := time.Since(t0).Seconds()
	rssMB := mem.windowMB()
	var instret uint64
	for _, r := range rows {
		for _, st := range r.Stats {
			instret += st.Instret
		}
	}
	sd := slowdowns(rows)
	p50 := median(sweepMS)
	fmt.Printf("%s: %d sweeps of %d cells in %.2fs; sweep_ms.p50 %.3f (n=%d); %d guest instructions per sweep\n",
		f.o.workload, len(sweepMS), sweepCells, elapsed, p50, len(sweepMS), instret)
	printModelNote(sd)
	m := metrics{}
	m.set("setup_s", setupS, "s")
	m.set("sweep_ms.p50", p50, "ms")
	m.set("guest_mips", float64(instret)/(p50/1e3)/1e6, "MIPS")
	m.set("rss_peak_mb", rssMB, "MB")
	m.set("job_ms.p50", finite(median(cellMS)), "ms")
	m.set("job_ms.p90", finite(percentile(cellMS, 90)), "ms")
	m.set("jobs_per_s", float64(cells)/elapsed, "1/s")
	m.set("slowdown_gm.ghostbusters", sd[core.ModeGhostBusters], "%")
	m.set("slowdown_gm.nospec", sd[core.ModeNoSpeculation], "%")
	return m, nil
}

// traced alternates untraced sweeps with traced ones (the same matrix
// run through the benchmark's instrumented benches) and reports the
// per-layer split, its reconciliation and the tracing overhead.
func (f *fig4) traced(setupS float64) (metrics, error) {
	sink := &memSink{}
	tr := hspan.New(sink)
	var plainMS, allocMB []float64
	var sweeps []*sweepTrace
	var ms0 runtime.MemStats
	t0 := time.Now()
	for len(sweeps) == 0 || time.Since(t0) < f.o.seconds {
		runtime.ReadMemStats(&ms0)
		before := ms0.TotalAlloc
		order := f.order() // the pair shares it, so the overhead compares like with like
		_, wall := f.sweep(order)
		runtime.ReadMemStats(&ms0)
		allocMB = append(allocMB, float64(ms0.TotalAlloc-before)/(1<<20))
		plainMS = append(plainMS, ms(wall))

		sweeps = append(sweeps, f.tracedSweep(tr, len(sweeps)+1, order))
	}
	l, coverage := layerMetrics(sweeps)
	if f.start == warm {
		// Artifacts are built once, in set-up: report that build.
		fill, _ := layerMetrics([]*sweepTrace{f.fill})
		for _, name := range []string{"polybench.make_ms", "riscv.assemble_ms", "kbuild.resolve_ms", "harness.artifact_builds"} {
			l[name] = fill[name]
		}
	}
	fmt.Printf("layer spans cover %.4f of traced cell wall time; per cell: min %.4f, p10 %.4f, median %.4f of %d cells\n",
		l["trace.coverage_frac"].Value, percentile(coverage, 0), percentile(coverage, 10), median(coverage), len(coverage))
	var tracedMS []float64
	for _, s := range sweeps {
		tracedMS = append(tracedMS, ms(s.wall))
	}
	l.set("harness.alloc_mb_per_sweep", median(allocMB), "MB")
	l.set("trace.overhead_frac", ratio(median(tracedMS)-median(plainMS), median(plainMS)), "frac")
	ov, err := detectOverhead(f.t)
	if err != nil {
		return nil, err
	}
	l.set("detect.overhead_frac", ov, "frac")
	fmt.Printf("%s traced: %d traced and %d untraced sweeps; set-up %.3fs; traced %.3f ms vs untraced %.3f ms per sweep\n",
		f.o.workload, len(sweeps), len(plainMS), setupS, median(tracedMS), median(plainMS))
	return l, writeSpans(f.o, tr, sink)
}

// tracedSweep runs the matrix once through the instrumented benches on
// the same runner configuration and checks every cell, the cycles of
// which must reproduce the untraced ones exactly.
func (f *fig4) tracedSweep(tr *hspan.Tracer, n int, order []int) *sweepTrace {
	_, tarts, tc := f.caches()
	st := &sweepTrace{tr: tr, arts: tarts, seq: n}
	benches := make([]harness.Bench, len(order))
	for i, bi := range order {
		benches[i] = st.bench(fig4Benches[bi].Name)
	}
	r := &harness.Runner{Workers: workers, TransCache: tc}
	t0 := time.Now()
	rows, err := r.RunMatrix(context.Background(), f.base, benches, f.modes)
	st.wall = time.Since(t0)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: traced sweep: %v\n", err)
	}
	before := f.t.failures()
	f.checkRows(rows, order)
	st.mismatches = int(f.t.failures() - before)
	st.rows = rows
	return st
}

// checkLeaks runs both PoCs under the Figure 4 modes: unsafe must
// recover the secret with ground-truth bits leaked, every mitigation
// must leak none.
func checkLeaks(t *tally, base dbt.Config) error {
	for _, v := range []attack.Variant{attack.V1, attack.V4} {
		for _, m := range harness.Fig4Modes {
			cfg := base
			cfg.Mitigation = m
			res, err := attack.Run(v, cfg, attack.Params{})
			if err != nil {
				return fmt.Errorf("%s (%s): %w", v, m, err)
			}
			bits := -1
			if res.Leakage != nil {
				bits = res.Leakage.BitsLeaked
			}
			if m == core.ModeUnsafe {
				t.check(res.Success() && bits > 0, "%s (unsafe): recovered %d/%d bytes, %d bits leaked",
					v, res.BytesCorrect, len(res.Secret), bits)
			} else {
				t.check(bits == 0, "%s (%s): %d bits leaked", v, m, bits)
			}
		}
	}
	return nil
}

// readExpected loads the checked-in Figure 4 cycles.
func readExpected(path string) (map[string]uint64, error) {
	rep, err := harness.ReadPerf(path)
	if err != nil {
		return nil, err
	}
	out := map[string]uint64{}
	for _, e := range rep.Entries {
		out[e.Benchmark+"|"+e.Mode] = e.SimCycles
	}
	return out, nil
}

// printModelNote prints the paper's reference figures beside the
// simulated slowdowns.
func printModelNote(sd map[core.Mode]float64) {
	fmt.Printf("slowdown_gm.ghostbusters %.4f%% of unsafe (paper: about 100%%, no impact on most kernels)\n",
		sd[core.ModeGhostBusters])
	fmt.Printf("slowdown_gm.nospec %.4f%% of unsafe (paper: about 116%%, a mean slowdown of about 16%%)\n",
		sd[core.ModeNoSpeculation])
	fmt.Println("model note: simulated cycles are exact but the model is not validated against hardware, so no error figure is given")
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"time"

	"ghostbusters/internal/attack"
	"ghostbusters/internal/core"
	"ghostbusters/internal/dbt"
	"ghostbusters/internal/detect"
	"ghostbusters/internal/harness"
	"ghostbusters/internal/hspan"
	"ghostbusters/internal/kbuild"
	"ghostbusters/internal/obs"
	"ghostbusters/internal/polybench"
	"ghostbusters/internal/riscv"
)

// artifact is a kernel prepared by the traced benches: what
// harness.Artifacts holds, built here so every step can be timed.
type artifact struct {
	ready chan struct{}
	spec  *polybench.Spec
	prog  *riscv.Program
	place []kbuild.Placement
	salt  string
	err   error
}

// tracedArtifacts builds each kernel once per cache, like
// harness.Artifacts: the first cell to ask builds, the rest wait.
type tracedArtifacts struct {
	mu sync.Mutex
	m  map[string]*artifact
}

func newTracedArtifacts() *tracedArtifacts { return &tracedArtifacts{m: map[string]*artifact{}} }

// get returns the kernel's artifact, recording either the build (with
// polybench.make, riscv.assemble and kbuild.resolve children) or the
// wait for another cell's build under parent.
func (a *tracedArtifacts) get(k polybench.Kernel, parent hspan.Span) (*artifact, bool) {
	a.mu.Lock()
	e := a.m[k.Name]
	owner := e == nil
	if owner {
		e = &artifact{ready: make(chan struct{})}
		a.m[k.Name] = e
	}
	a.mu.Unlock()
	if !owner {
		w := parent.Child("artifact.wait")
		<-e.ready
		w.End()
		return e, false
	}
	b := parent.Child("artifact.build")
	defer close(e.ready)
	defer b.End()
	sp := b.Child("polybench.make")
	e.spec, e.err = k.Make(k.DefaultN)
	sp.End()
	if e.err != nil {
		return e, true
	}
	sp = b.Child("riscv.assemble")
	e.prog, e.err = riscv.Assemble(e.spec.Source)
	sp.End()
	if e.err != nil {
		return e, true
	}
	sp = b.Child("kbuild.resolve")
	e.place, e.err = kbuild.Resolve(e.prog, e.spec.Arrays)
	sp.End()
	e.salt = inputSalt(e.spec)
	return e, true
}

// inputSalt hashes a spec's input arrays into the translation-cache
// salt exactly as the harness does, so traced and untraced cells share
// cache entries.
func inputSalt(spec *polybench.Spec) string {
	names := make([]string, 0, len(spec.Inputs))
	for name := range spec.Inputs {
		names = append(names, name)
	}
	sort.Strings(names)
	h := sha256.New()
	var w [8]byte
	for _, name := range names {
		fmt.Fprintf(h, "%s:%d;", name, len(spec.Inputs[name]))
		for _, v := range spec.Inputs[name] {
			binary.LittleEndian.PutUint64(w[:], uint64(v))
			h.Write(w[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:24]
}

// cellTrace is what one traced cell leaves behind for the layer split.
type cellTrace struct {
	u       *unit
	key     string // "bench|mode"
	kernel  bool
	built   bool // this cell built its kernel's artifact
	transNS int64
	runNS   int64
	stats   dbt.Stats
}

// sweepTrace is one traced matrix sweep.
type sweepTrace struct {
	tr         *hspan.Tracer
	arts       *tracedArtifacts
	seq        int
	wall       time.Duration
	rows       []*harness.Row
	mismatches int

	mu    sync.Mutex
	cells []*cellTrace
}

func (s *sweepTrace) cell(bench string, mode core.Mode) *cellTrace {
	c := &cellTrace{u: newUnit(s.tr, "cell", fmt.Sprintf("sweep%d/%s/%s", s.seq, bench, mode)),
		key: bench + "|" + mode.String()}
	s.mu.Lock()
	s.cells = append(s.cells, c)
	s.mu.Unlock()
	return c
}

// bench returns the instrumented bench for a Figure 4 row: the kernel
// path of harness.KernelBench, or the PoC of harness.SpectreBench.
func (s *sweepTrace) bench(name string) harness.Bench {
	if k, err := polybench.ByName(name); err == nil {
		return harness.Bench{Name: name, Run: func(_ context.Context, cfg dbt.Config, _ *harness.Artifacts) (*harness.KernelRun, error) {
			return s.runKernel(k, cfg)
		}}
	}
	v := attack.V1
	if name == attack.V4.String() {
		v = attack.V4
	}
	return harness.Bench{Name: name, Run: func(_ context.Context, cfg dbt.Config, _ *harness.Artifacts) (*harness.KernelRun, error) {
		c := s.cell(name, cfg.Mitigation)
		defer c.u.root.End()
		sp := c.u.root.Child("attack.run")
		res, err := attack.Run(v, cfg, attack.Params{Secret: []byte{0x5A, 0xC3}})
		sp.End()
		if err != nil {
			return nil, err
		}
		c.stats = res.Stats
		return &harness.KernelRun{Name: name, Mode: cfg.Mitigation, Cycles: res.Cycles, Stats: res.Stats}, nil
	}}
}

// runKernel is one kernel cell with every public call timed.
func (s *sweepTrace) runKernel(k polybench.Kernel, cfg dbt.Config) (*harness.KernelRun, error) {
	c := s.cell(k.Name, cfg.Mitigation)
	c.kernel = true
	u, root := c.u, c.u.root
	defer root.End()
	art, built := s.arts.get(k, root)
	c.built = built
	if art.err != nil {
		return nil, art.err
	}
	if cfg.TransCache != nil {
		cfg.TCacheSalt = art.salt
	}
	sp := root.Child("dbt.new")
	m, err := dbt.New(cfg)
	sp.End()
	if err != nil {
		return nil, err
	}
	released := false
	release := func() {
		if !released {
			sp := root.Child("dbt.release")
			m.Release()
			sp.End()
			released = true
		}
	}
	defer release()
	sp = root.Child("dbt.load")
	err = m.Load(art.prog)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = root.Child("kbuild.init")
	for j, a := range art.spec.Arrays {
		if err = art.place[j].Init(m.Mem(), art.spec.Inputs[a.Name]); err != nil {
			break
		}
	}
	sp.End()
	if err != nil {
		return nil, err
	}
	run := root.Child("dbt.run")
	res, err := m.Run()
	rr := u.end(run)
	c.runNS = nsOf(rr)
	c.transNS = m.TranslateHostNS()
	// Translation interleaves with execution; the split is attributed
	// as two consecutive intervals of the run span.
	run.Emit("dbt.translate", rr.Start, rr.Start+c.transNS)
	run.Emit("dbt.exec", rr.Start+c.transNS, rr.End)
	if err != nil {
		return nil, err
	}
	c.stats = res.Stats
	if res.Exit.Code != 0 || res.Stats.CompileErrs != 0 {
		return nil, fmt.Errorf("%s (%s): exit code %d, %d compile errors", k.Name, cfg.Mitigation,
			res.Exit.Code, res.Stats.CompileErrs)
	}
	sp = root.Child("harness.validate")
	err = validate(art, m)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("%s (%s): %w", k.Name, cfg.Mitigation, err)
	}
	release()
	return &harness.KernelRun{Name: k.Name, Mode: cfg.Mitigation, Cycles: res.Cycles,
		Stats: res.Stats, TransNS: c.transNS}, nil
}

// validate reads every output array and compares it with the Go reference.
func validate(art *artifact, m *dbt.Machine) error {
	for _, out := range art.spec.Outputs {
		var pl *kbuild.Placement
		for j := range art.place {
			if art.place[j].Arr.Name == out {
				pl = &art.place[j]
			}
		}
		if pl == nil {
			return fmt.Errorf("no placement for output %s", out)
		}
		got, err := pl.Read(m.Mem())
		if err != nil {
			return err
		}
		want := art.spec.Expected[out]
		if len(got) < len(want) {
			return fmt.Errorf("output %s has %d elements, reference %d", out, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				return fmt.Errorf("output %s[%d] = %d, reference %d", out, j, got[j], want[j])
			}
		}
	}
	return nil
}

// layerMetrics folds traced sweeps into the per-layer metrics and
// returns each cell's span coverage alongside. Times and
// counts are per sweep (84 cells) unless the name says otherwise; every
// per-layer metric of the benchmark is present, and those of layers a
// fig4 workload does not exercise (serve) read 0.
func layerMetrics(sweeps []*sweepTrace) (metrics, []float64) {
	l := zeroLayers()
	n := float64(len(sweeps))
	var cellMS, attackMS, poolWait, cellCoverage []float64
	var sum struct {
		validate, make_, assemble, resolve, newNS, load, init, release      int64
		trans, transFresh, install, exec, execKernelInst, execKernelBundles int64
		builds, kernelCells, translations, freshRegions                     int64
		hits, misses, bundles, cacheAcc, interp, blockExecs                 uint64
		covered, wall                                                       int64
		mismatches                                                          int
	}
	for _, s := range sweeps {
		sum.mismatches += s.mismatches
		var busy int64
		hostNS := map[string]int64{}
		for _, row := range s.rows {
			for m, ns := range row.HostNS {
				cellMS = append(cellMS, float64(ns)/1e6)
				busy += ns
				hostNS[row.Name+"|"+m.String()] = ns
			}
		}
		sum.wall += busy
		poolWait = append(poolWait, 1-ratio(float64(busy), float64(workers)*float64(s.wall)))
		for _, c := range s.cells {
			u := c.u
			sum.covered += u.covered()
			if ns := hostNS[c.key]; ns > 0 {
				cellCoverage = append(cellCoverage, float64(u.covered())/float64(ns))
			}
			st := c.stats
			sum.translations += int64(st.Translations)
			sum.hits += uint64(st.TCacheHits)
			sum.misses += uint64(st.TCacheMisses)
			sum.bundles += st.Bundles
			sum.cacheAcc += st.Cache.Hits + st.Cache.Misses
			sum.interp += st.InterpInsts
			sum.blockExecs += st.BlockExecs
			if !c.kernel {
				attackMS = append(attackMS, float64(u.sum("attack.run"))/1e6)
				continue
			}
			sum.kernelCells++
			if c.built {
				sum.builds++
			}
			sum.validate += u.sum("harness.validate")
			sum.make_ += u.sum("polybench.make")
			sum.assemble += u.sum("riscv.assemble")
			sum.resolve += u.sum("kbuild.resolve")
			sum.newNS += u.sum("dbt.new")
			sum.load += u.sum("dbt.load")
			sum.init += u.sum("kbuild.init")
			sum.release += u.sum("dbt.release")
			sum.trans += c.transNS
			if st.Translations > 0 {
				sum.transFresh += c.transNS
				sum.freshRegions += int64(st.Translations)
			} else {
				sum.install += c.transNS
			}
			exec := c.runNS - c.transNS
			sum.exec += exec
			sum.execKernelInst += int64(st.Instret)
			sum.execKernelBundles += int64(st.Bundles)
		}
	}
	perCell := func(ns int64) float64 { return ratio(float64(ns)/1e3, float64(sum.kernelCells)) }
	l.set("harness.cell_ms.p50", median(cellMS), "ms")
	l.set("harness.cell_ms.p99", percentile(cellMS, 99), "ms")
	l.set("harness.pool_wait_frac", median(poolWait), "frac")
	l.set("harness.validate_ms", float64(sum.validate)/1e6/n, "ms")
	l.set("polybench.make_ms", float64(sum.make_)/1e6/n, "ms")
	l.set("riscv.assemble_ms", float64(sum.assemble)/1e6/n, "ms")
	l.set("kbuild.resolve_ms", float64(sum.resolve)/1e6/n, "ms")
	l.set("harness.artifact_builds", float64(sum.builds)/n, "count")
	l.set("dbt.new_us", perCell(sum.newNS), "us")
	l.set("dbt.load_us", perCell(sum.load), "us")
	l.set("kbuild.init_us", perCell(sum.init), "us")
	l.set("dbt.release_us", perCell(sum.release), "us")
	l.set("dbt.translate_ms", float64(sum.trans)/1e6/n, "ms")
	l.set("dbt.translations", float64(sum.translations)/n, "count")
	l.set("dbt.translate_us_per_region", ratio(float64(sum.transFresh)/1e3, float64(sum.freshRegions)), "us")
	l.set("tcache.hits", float64(sum.hits)/n, "count")
	l.set("tcache.misses", float64(sum.misses)/n, "count")
	l.set("tcache.hit_ratio", ratio(float64(sum.hits), float64(sum.hits+sum.misses)), "frac")
	l.set("tcache.install_ms", float64(sum.install)/1e6/n, "ms")
	l.set("dbt.exec_ms", float64(sum.exec)/1e6/n, "ms")
	l.set("exec.ns_per_guest_inst", ratio(float64(sum.exec), float64(sum.execKernelInst)), "ns")
	l.set("exec.ns_per_bundle", ratio(float64(sum.exec), float64(sum.execKernelBundles)), "ns")
	l.set("vliw.bundles", float64(sum.bundles)/n, "count")
	l.set("cache.accesses", float64(sum.cacheAcc)/n, "count")
	l.set("riscv.interp_insts", float64(sum.interp)/n, "count")
	l.set("dbt.block_execs", float64(sum.blockExecs)/n, "count")
	l.set("attack.run_ms.p50", median(attackMS), "ms")
	cov := ratio(float64(sum.covered), float64(sum.wall))
	l.set("trace.coverage_frac", cov, "frac")
	l.set("trace.residual_frac", 1-cov, "frac")
	l.set("trace.cycle_mismatches", float64(sum.mismatches), "count")
	return l, cellCoverage
}

// layerUnits lists every per-layer metric with its unit, so each traced
// run reports the full set.
var layerUnits = map[string]string{
	"harness.cell_ms.p50": "ms", "harness.cell_ms.p99": "ms", "harness.pool_wait_frac": "frac",
	"harness.validate_ms": "ms", "harness.alloc_mb_per_sweep": "MB",
	"polybench.make_ms": "ms", "riscv.assemble_ms": "ms", "kbuild.resolve_ms": "ms",
	"harness.artifact_builds": "count",
	"dbt.new_us":              "us", "dbt.load_us": "us", "kbuild.init_us": "us", "dbt.release_us": "us",
	"dbt.translate_ms": "ms", "dbt.translations": "count", "dbt.translate_us_per_region": "us",
	"tcache.hits": "count", "tcache.misses": "count", "tcache.hit_ratio": "frac", "tcache.install_ms": "ms",
	"dbt.exec_ms": "ms", "exec.ns_per_guest_inst": "ns", "exec.ns_per_bundle": "ns",
	"vliw.bundles": "count", "cache.accesses": "count", "riscv.interp_insts": "count",
	"dbt.block_execs":      "count",
	"attack.run_ms.p50":    "ms",
	"detect.overhead_frac": "frac",
	"serve.submit_ms.p50":  "ms", "serve.queue_ms.p50": "ms", "serve.queue_ms.p90": "ms",
	"serve.exec_ms.p50": "ms", "serve.kernel_job_ms.p50": "ms", "serve.metered_job_ms.p50": "ms",
	"serve.detect_job_ms.p50": "ms", "serve.rejects": "count",
	"trace.coverage_frac": "frac", "trace.residual_frac": "frac", "trace.overhead_frac": "frac",
	"trace.cycle_mismatches": "count",
	"error_rate":             "frac",
}

func zeroLayers() metrics {
	l := metrics{}
	for name, unit := range layerUnits {
		l.set(name, 0, unit)
	}
	return l
}

// detectOverhead times the same Spectre v1 PoC run with and without a
// LevelSpec tracer feeding the online detector, alternating the two,
// and returns the relative cost of detection. The cycles of both runs
// must be equal: observing must not change what is observed.
func detectOverhead(t *tally) (float64, error) {
	const pairs = 7
	cfg := dbt.DefaultConfig()
	src, err := attack.Source(attack.V1, cfg, attack.Params{})
	if err != nil {
		return 0, err
	}
	prog, err := riscv.Assemble(src)
	if err != nil {
		return 0, err
	}
	run := func(withDetector bool) (time.Duration, uint64, error) {
		c := cfg
		if withDetector {
			c.Tracer = obs.New(obs.LevelSpec, detect.New(detect.Config{}))
		}
		t0 := time.Now()
		cycles, _, _, err := runProgram(c, prog)
		return time.Since(t0), cycles, err
	}
	var plain, detected []float64
	for i := 0; i < pairs; i++ {
		d0, c0, err := run(false)
		if err != nil {
			return 0, err
		}
		d1, c1, err := run(true)
		if err != nil {
			return 0, err
		}
		t.check(c0 == c1, "spectre-v1: %d cycles with the detector attached, %d without", c1, c0)
		plain = append(plain, float64(d0))
		detected = append(detected, float64(d1))
	}
	return ratio(median(detected)-median(plain), median(plain)), nil
}

// runProgram runs an assembled guest on a fresh machine and returns its
// cycles, instructions retired and exit code. A tracer in cfg is closed
// (flushed into its sink) before returning.
func runProgram(cfg dbt.Config, prog *riscv.Program) (uint64, uint64, int64, error) {
	m, err := dbt.New(cfg)
	if err != nil {
		return 0, 0, 0, err
	}
	defer m.Release()
	if err := m.Load(prog); err != nil {
		return 0, 0, 0, err
	}
	res, err := m.Run()
	if cerr := cfg.Tracer.Close(); err == nil && cerr != nil {
		err = cerr
	}
	if err != nil {
		return 0, 0, 0, err
	}
	return res.Cycles, res.Instret, int64(res.Exit.Code), nil
}

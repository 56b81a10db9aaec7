// Command perfbench is the repository benchmark. It drives the simulator
// only through its public entry points — harness.Runner, dbt.Machine,
// tcache.Cache, attack.Run/attack.Source and an in-process gbserve
// (serve.New(...).Handler() on a loopback listener) — and reports host
// time end to end and, in a separate traced run, layer by layer.
//
//	perfbench -root <checkout> -workload fig4-warm -seed 1 -seconds 10 -trace 0
//
// Workloads: fig4-warm, fig4-cold, fig4-restart (the Figure 4 matrix with
// warmed, absent and disk-restored caches) and serve-mixed (a closed loop
// of two tenants against gbserve). Every simulated result is checked:
// Figure 4 cycles against the checked-in BENCH_fig4.json, kernel outputs
// against their Go references, Spectre leak verdicts, and every served
// job against a local run computed during set-up. The last line of
// standard output is one JSON object: correct, attempted, failed and
// the metrics (end-to-end with -trace 0, per-layer with -trace 1). Any
// wrong or failed operation makes the exit code 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// setupReps is how many times a run performs its workload's set-up; the
// reported setup_s is the median and the last set-up is the one measured.
const setupReps = 5

// workers is the number of simulating goroutines: the harness pool size
// on fig4-* and the gbserve fleet size on serve-mixed.
const workers = 2

// options are the command-line arguments.
type options struct {
	root     string // checkout root (holds BENCH_fig4.json)
	out      string // output directory for spans and temporary caches
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps a metric name to its value.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is the benchmark's last output line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// tally counts checked operations and failures. Failure details go to
// standard error (the first few; the count is always exact).
type tally struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
}

func (t *tally) ok() {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
}

func (t *tally) fail(format string, args ...any) {
	t.mu.Lock()
	t.attempted++
	t.failed++
	n := t.failed
	t.mu.Unlock()
	if n <= 10 {
		fmt.Fprintf(os.Stderr, "perfbench: FAIL: "+format+"\n", args...)
	}
}

// failures returns the number of failed operations so far.
func (t *tally) failures() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.failed
}

// check counts one operation, failing it with the message when cond is false.
func (t *tally) check(cond bool, format string, args ...any) {
	if cond {
		t.ok()
		return
	}
	t.fail(format, args...)
}

// endToEndUnits lists every end-to-end metric with its unit: each
// untraced run reports exactly these (per-layer: layerUnits).
var endToEndUnits = map[string]string{
	"setup_s": "s", "sweep_ms.p50": "ms", "guest_mips": "MIPS", "rss_peak_mb": "MB",
	"job_ms.p50": "ms", "job_ms.p90": "ms", "jobs_per_s": "1/s",
	"slowdown_gm.ghostbusters": "%", "slowdown_gm.nospec": "%",
}

// workloadFunc runs one workload and returns its metrics (end-to-end or
// per-layer, per o.trace). An error means the workload could not run at
// all; wrong results are counted in the tally instead.
type workloadFunc func(o *options, t *tally) (metrics, error)

var workloads = map[string]workloadFunc{
	"fig4-warm":    func(o *options, t *tally) (metrics, error) { return runFig4(o, t, warm) },
	"fig4-cold":    func(o *options, t *tally) (metrics, error) { return runFig4(o, t, cold) },
	"fig4-restart": func(o *options, t *tally) (metrics, error) { return runFig4(o, t, restart) },
	"serve-mixed":  runServe,
}

func main() {
	var o options
	var seconds, trace int
	flag.StringVar(&o.root, "root", ".", "checkout root holding BENCH_fig4.json")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for span files and temporary caches")
	flag.StringVar(&o.workload, "workload", "", "fig4-warm | fig4-cold | fig4-restart | serve-mixed")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.IntVar(&seconds, "seconds", 10, "length of the measured phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	run, ok := workloads[o.workload]
	if !ok || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds >= 1 and -trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	o.seconds = time.Duration(seconds) * time.Second
	o.trace = trace == 1
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}

	var t tally
	m, err := run(&o, &t)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	// Every worker has finished: the tally is read without its lock.
	if t.attempted == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: no operation was attempted\n", o.workload)
		os.Exit(1)
	}
	errorRate := float64(t.failed) / float64(t.attempted)
	want := endToEndUnits
	if o.trace {
		want = layerUnits
		m.set("error_rate", errorRate, "frac")
	}
	if len(m) != len(want) {
		fmt.Fprintf(os.Stderr, "perfbench: %s reported %d metrics, want %d\n", o.workload, len(m), len(want))
		os.Exit(1)
	}
	for name, v := range m {
		if want[name] != v.Unit {
			fmt.Fprintf(os.Stderr, "perfbench: %s reported %s in %q, want %q\n", o.workload, name, v.Unit, want[name])
			os.Exit(1)
		}
	}
	fmt.Printf("error_rate %.6f (%d failed of %d attempted)\n", errorRate, t.failed, t.attempted)
	line, err := json.Marshal(result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if t.failed > 0 {
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// setup runs fn setupReps times and returns the median duration in
// seconds. Before each repetition, untimed, drop releases what the
// previous one built and a collection returns it, so repetitions do not
// stack up in the peak RSS; a last collection leaves the measured phase
// a clean heap.
func setup(drop func(), fn func() error) (float64, error) {
	var secs []float64
	for i := 0; i < setupReps; i++ {
		drop()
		runtime.GC()
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	runtime.GC()
	return median(secs), nil
}

// memWindows samples the memory the Go runtime holds for the process
// (mapped and not returned to the OS, an upper bound of its heap's
// resident set) every few milliseconds and keeps the peak of each
// one-second window and the peak so far. On fig4-* rss_peak_mb is the
// median of the window peaks. The process's all-time peak RSS is set by
// whichever collection happened to start late: on fig4-warm on a 2-CPU
// host it ranges from 93 to 152 MB over runs of the same code.
type memWindows struct {
	stop, done chan struct{}
	peaks      []float64     // MiB
	peak       atomic.Uint64 // bytes, the highest sample so far
}

func sampleMemory() *memWindows {
	w := &memWindows{stop: make(chan struct{}), done: make(chan struct{})}
	go w.run()
	return w
}

func (w *memWindows) run() {
	defer close(w.done)
	s := []rtmetrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	t0 := time.Now()
	var window uint64
	for {
		rtmetrics.Read(s)
		held := s[0].Value.Uint64() - s[1].Value.Uint64()
		window = max(window, held)
		if held > w.peak.Load() {
			w.peak.Store(held) // only this goroutine stores
		}
		select {
		case <-w.stop:
			if len(w.peaks) == 0 { // keep a partial window only if it is the only one
				w.peaks = append(w.peaks, mib(window))
			}
			return
		case now := <-tick.C:
			if now.Sub(t0) >= time.Duration(len(w.peaks)+1)*time.Second {
				w.peaks = append(w.peaks, mib(window))
				window = 0
			}
		}
	}
}

func mib(bytes uint64) float64 { return float64(bytes) / (1 << 20) }

// peakSoFar returns the highest sample so far in MiB.
func (w *memWindows) peakSoFar() float64 { return mib(w.peak.Load()) }

// finish stops sampling and prints the process's all-time peak RSS.
func (w *memWindows) finish() {
	close(w.stop)
	<-w.done
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		fmt.Printf("process peak RSS %.1f MB\n", float64(ru.Maxrss)/1024) // Linux reports KiB
	}
}

// windowMB stops sampling and returns the median window peak in MiB.
func (w *memWindows) windowMB() float64 {
	w.finish()
	p50 := median(w.peaks)
	fmt.Printf("rss_peak_mb %.3f: median of %d one-second peaks of runtime-held memory\n", p50, len(w.peaks))
	return p50
}

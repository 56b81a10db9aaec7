package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"ghostbusters/internal/attack"
	"ghostbusters/internal/core"
	"ghostbusters/internal/dbt"
	"ghostbusters/internal/detect"
	"ghostbusters/internal/harness"
	"ghostbusters/internal/hspan"
	"ghostbusters/internal/obs"
	"ghostbusters/internal/polybench"
	"ghostbusters/internal/riscv"
	"ghostbusters/internal/serve"
	"ghostbusters/internal/tcache"
)

// The two tenants of serve-mixed, one closed-loop client each.
const (
	tenantLab     = "lab"     // unmetered: kernel sweeps and detect-enabled PoC runs
	tenantMetered = "metered" // MaxInFlight 1 and a cycle budget: kernel sweeps
)

// meteredBudget is the metered tenant's cycle budget. It is metered (so
// every job's MaxCycles is its remaining allowance) but never runs out:
// at a billion simulated cycles per host second a run would need over
// thirty years to spend it.
const meteredBudget = 1 << 60

// detectOneIn sets the lab tenant's mix: one job in every detectOneIn is
// a detect-enabled PoC run, the rest are kernel sweeps. The share (0.25)
// is a chosen value, not a measured one: it sets where the job latency
// percentiles fall. On a 2-CPU host detect jobs are the fastest class
// (about 7 ms, against 16 ms for a lab kernel sweep and 31 ms for a
// metered one), and at 0.25 they are about 16% of all jobs, so
// job_ms.p50 falls inside the kernel sweeps and job_ms.p90 inside the
// metered ones, both away from a class boundary where a percentile flips
// between two classes from run to run. A share near 0.7, which would give
// the two lab kinds equal host time, puts job_ms.p50 on the
// detect/kernel boundary.
const detectOneIn = 4

// jobSpec is one generated request.
type jobSpec struct {
	Tenant  string
	Kernel  string         // kernel sweep: the kernel, under the four Figure 4 modes
	Variant attack.Variant // PoC run (Kernel == "")
	Mode    core.Mode      // PoC run mode: unsafe or ghostbusters
}

func (j jobSpec) class() string {
	switch {
	case j.Tenant == tenantMetered:
		return "metered"
	case j.Kernel != "":
		return "kernel"
	}
	return "detect"
}

// deck deals its items in a shuffled order, reshuffled each time it
// runs out, so every item comes up exactly once in each deal.
type deck[T any] struct{ items, left []T }

func (d *deck[T]) deal(rng *rand.Rand) T {
	if len(d.left) == 0 {
		d.left = append(d.left, d.items...)
		rng.Shuffle(len(d.left), func(a, b int) { d.left[a], d.left[b] = d.left[b], d.left[a] })
	}
	x := d.left[0]
	d.left = d.left[1:]
	return x
}

// stream is one client's seeded job sequence. Every choice comes from a
// deck, so the mix holds exactly within every deal rather than on
// average: each kernel once per len(kernels) sweeps, and on the lab
// tenant one detect run per detectOneIn jobs, each PoC variant and mode
// once per four detect runs.
type stream struct {
	tenant  string
	rng     *rand.Rand
	kernels deck[string]
	detect  deck[bool]
	pocs    deck[jobSpec]
}

// newStream returns the job sequence of one client; each client draws
// from its own stream of the seed.
func newStream(seed uint64, tenant string, kernels []string) *stream {
	id := uint64(1)
	if tenant == tenantMetered {
		id = 2
	}
	s := &stream{tenant: tenant, rng: rand.New(rand.NewPCG(seed, id)), kernels: deck[string]{items: kernels}}
	if tenant == tenantLab {
		s.detect.items = make([]bool, detectOneIn)
		s.detect.items[0] = true
		for _, v := range []attack.Variant{attack.V1, attack.V4} {
			for _, m := range []core.Mode{core.ModeUnsafe, core.ModeGhostBusters} {
				s.pocs.items = append(s.pocs.items, jobSpec{Tenant: tenant, Variant: v, Mode: m})
			}
		}
	}
	return s
}

func (s *stream) next() jobSpec {
	if s.tenant == tenantLab && s.detect.deal(s.rng) {
		return s.pocs.deal(s.rng)
	}
	return jobSpec{Tenant: s.tenant, Kernel: s.kernels.deal(s.rng)}
}

func kernelNames() []string {
	var names []string
	for _, k := range polybench.All() {
		names = append(names, k.Name)
	}
	return names
}

// runRef is the local result a served PoC run must reproduce.
type runRef struct {
	cycles, instret uint64
	exit            int64
	alarm           bool
}

// references are the local results served jobs are checked against.
type references struct {
	tables  map[string]string       // kernel → sweep table (harness.FormatRows)
	rows    map[string]*harness.Row // kernel → its row, for the slowdowns
	runs    map[string]runRef       // "variant|mode" → PoC run with the detector
	sources map[attack.Variant]string
}

func runKey(v attack.Variant, m core.Mode) string { return v.String() + "|" + m.String() }

// buildReferences computes every result the job mix can ask for by
// running it locally: one sweep of all kernels and the four PoC runs.
func buildReferences(base dbt.Config) (*references, error) {
	refs := &references{tables: map[string]string{}, rows: map[string]*harness.Row{},
		runs: map[string]runRef{}, sources: map[attack.Variant]string{}}
	var benches []harness.Bench
	for _, k := range polybench.All() {
		benches = append(benches, harness.KernelBench(k, 0))
	}
	r := &harness.Runner{Workers: workers, Artifacts: harness.NewArtifacts()}
	rows, err := r.RunMatrix(context.Background(), base, benches, harness.Fig4Modes)
	if err != nil {
		return nil, fmt.Errorf("reference sweep: %w", err)
	}
	for _, row := range rows {
		refs.tables[row.Name] = harness.FormatRows([]*harness.Row{row}, harness.Fig4Modes)
		refs.rows[row.Name] = row
	}
	for _, v := range []attack.Variant{attack.V1, attack.V4} {
		src, err := attack.Source(v, base, attack.Params{})
		if err != nil {
			return nil, err
		}
		refs.sources[v] = src
		prog, err := riscv.Assemble(src)
		if err != nil {
			return nil, err
		}
		for _, m := range []core.Mode{core.ModeUnsafe, core.ModeGhostBusters} {
			cfg := base
			cfg.Mitigation = m
			det := detect.New(detect.Config{})
			cfg.Tracer = obs.New(obs.LevelSpec, det)
			cycles, instret, exit, err := runProgram(cfg, prog)
			if err != nil {
				return nil, fmt.Errorf("reference %s (%s): %w", v, m, err)
			}
			refs.runs[runKey(v, m)] = runRef{cycles: cycles, instret: instret, exit: exit, alarm: det.Report().Alarm}
		}
	}
	return refs, nil
}

// request renders a job as the submit body.
func (refs *references) request(j jobSpec) serve.JobRequest {
	if j.Kernel != "" {
		return serve.JobRequest{Tenant: j.Tenant, Kind: serve.KindKernel, Kernel: j.Kernel}
	}
	return serve.JobRequest{Tenant: j.Tenant, Kind: serve.KindRun, Program: refs.sources[j.Variant],
		Mode: j.Mode.String(), Detect: true}
}

// verify compares a served result with the local reference.
func (refs *references) verify(j jobSpec, st *serve.JobStatus) error {
	if st.State != serve.StateDone || st.Result == nil {
		if st.Error != nil {
			return fmt.Errorf("job %s %s: %s: %s", st.ID, st.State, st.Error.Code, st.Error.Message)
		}
		return fmt.Errorf("job %s ended %s without a result", st.ID, st.State)
	}
	res := st.Result
	if j.Kernel != "" {
		if want := refs.tables[j.Kernel]; res.Table != want {
			return fmt.Errorf("job %s: %s table differs from the local run:\n%s\nwant:\n%s", st.ID, j.Kernel, res.Table, want)
		}
		return nil
	}
	want := refs.runs[runKey(j.Variant, j.Mode)]
	alarm := res.Detect != nil && res.Detect.Alarm
	if res.Cycles != want.cycles || res.Instret != want.instret || int64(res.ExitCode) != want.exit || alarm != want.alarm {
		return fmt.Errorf("job %s: %s (%s): cycles %d instret %d exit %d alarm %v, local run %d %d %d %v",
			st.ID, j.Variant, j.Mode, res.Cycles, res.Instret, res.ExitCode, alarm,
			want.cycles, want.instret, want.exit, want.alarm)
	}
	return nil
}

// server is an in-process gbserve on a loopback listener.
type server struct {
	srv  *serve.Server
	http *http.Server
	url  string
	done chan struct{} // closed once Serve has returned
}

// startServer boots gbserve. With metered false the metered tenant
// gets no quota, which is how the self-tests size what its cycle budget
// costs. spans, when non-nil, receives the server's span records.
func startServer(metered bool, spans *hspan.Tracer) (*server, error) {
	tenants := map[string]serve.Quota{}
	if metered {
		tenants[tenantMetered] = serve.Quota{MaxInFlight: 1, CycleBudget: meteredBudget}
	}
	srv, err := serve.New(serve.Config{
		Workers:        workers,
		JobParallelism: 1,
		TransCache:     tcache.New(""),
		Tenants:        tenants,
		Spans:          spans,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background())
		return nil, err
	}
	s := &server{srv: srv, http: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(),
		done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.http.Serve(ln) // returns http.ErrServerClosed after stop
	}()
	return s, nil
}

// stop shuts the listener and the fleet down and waits for both.
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.http.Shutdown(ctx)
	<-s.done
	_ = s.srv.Shutdown(ctx)
}

// client is one closed-loop caller with its own connection.
type client struct {
	base string
	http *http.Client
}

func newClient(base string) *client {
	return &client{base: base, http: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do sends one request and decodes a JSON reply into out. It returns
// the HTTP status.
func (c *client) do(method, path string, body any, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return resp.StatusCode, fmt.Errorf("%s %s: status %d: %w", method, path, resp.StatusCode, err)
	}
	return resp.StatusCode, nil
}

// jobResult is one finished request as the client saw it.
type jobResult struct {
	spec     jobSpec
	ok       bool
	rejected bool    // refused at admission (403/429)
	ms       float64 // POST to reply
	end      time.Duration
	cells    int
	instret  uint64
	metrics  obs.Snapshot
	traced   bool
	// Traced jobs only. submitMS is the client's POST to 202; the rest
	// come from the job's server-side span tree (/v1/jobs/{id}/trace):
	// queue wait, dequeue to finish, the cells, and the translate and
	// execute split.
	submitMS, queueMS, execMS float64
	cellMS                    []float64
	translateNS, executeNS    int64
	covered                   float64 // share of the server's job span its phases cover
}

// submitWait is the untraced request: POST ?wait=1 returns the terminal
// status in one round trip.
func (c *client) submitWait(refs *references, j jobSpec) (*serve.JobStatus, int, error) {
	var st serve.JobStatus
	code, err := c.do("POST", "/v1/jobs?wait=1", refs.request(j), &st)
	if err != nil {
		return nil, code, err
	}
	return &st, code, nil
}

// submitTraced is the traced request: POST, follow the job's event
// stream to job_finished, then fetch the status. Each step is a client
// span; the job's server-side span tree is fetched afterwards, outside
// the timed request.
func (c *client) submitTraced(refs *references, j jobSpec, u *unit, r *jobResult) (*serve.JobStatus, int, error) {
	sp := u.root.Child("serve.submit")
	var st serve.JobStatus
	code, err := c.do("POST", "/v1/jobs", refs.request(j), &st)
	r.submitMS = float64(nsOf(u.end(sp))) / 1e6
	if err != nil || code != http.StatusAccepted {
		return &st, code, err
	}
	sp = u.root.Child("serve.events")
	err = c.follow(st.ID)
	sp.End()
	if err != nil {
		return nil, code, err
	}
	sp = u.root.Child("serve.result")
	var fin serve.JobStatus
	_, err = c.do("GET", "/v1/jobs/"+st.ID, nil, &fin)
	sp.End()
	if err != nil {
		return nil, code, err
	}
	return &fin, code, nil
}

// follow reads a job's event stream to its end, which comes right
// after job_finished.
func (c *client) follow(id string) error {
	resp, err := c.http.Get(c.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	finished := false
	for sc.Scan() {
		var ev serve.JobEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("job %s: event stream: %w", id, err)
		}
		finished = ev.Type == serve.EventJobFinished
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("job %s: event stream: %w", id, err)
	}
	if !finished {
		return fmt.Errorf("job %s: event stream ended without job_finished", id)
	}
	return nil
}

// serverSpans fetches a finished job's server-side span tree (the same
// records the server wrote to the run's tracer) and folds it into r.
func (c *client) serverSpans(id string, r *jobResult) error {
	resp, err := c.http.Get(c.base + "/v1/jobs/" + id + "/trace")
	if err != nil {
		return err
	}
	recs, err := hspan.ParseJSONL(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("job %s: trace: %w", id, err)
	}
	var job *hspan.Record
	for k := range recs {
		if recs[k].Parent == 0 && recs[k].Name == "job" {
			job = &recs[k]
		}
	}
	if job == nil {
		return fmt.Errorf("job %s: trace has no job span", id)
	}
	queueEnd, covered := job.Start, int64(0)
	for _, rc := range recs {
		d := nsOf(rc)
		if rc.Parent == job.ID {
			covered += d
		}
		switch {
		case rc.Name == "queue-wait":
			r.queueMS = float64(d) / 1e6
			queueEnd = rc.End
		case rc.Name == "cell", rc.Name == "attempt" && rc.Parent == job.ID:
			r.cellMS = append(r.cellMS, float64(d)/1e6)
		case rc.Name == "translate":
			r.translateNS += d
		case rc.Name == "execute":
			r.executeNS += d
		}
	}
	r.execMS = float64(job.End-queueEnd) / 1e6
	r.covered = ratio(float64(covered), float64(nsOf(*job)))
	return nil
}

// loop is one client's closed loop: the next request goes out when the
// previous reply is in, and done receives each finished job. In a
// traced run every other job is traced.
func (w *serveRun) loop(c *client, s *stream, t0 time.Time, done func(jobResult)) {
	for n := 0; n == 0 || time.Since(t0) < w.o.seconds; n++ {
		done(w.job(c, s.next(), n, w.o.trace && n%2 == 1, t0))
	}
}

// job sends one request, times it and checks the reply against the
// local reference.
func (w *serveRun) job(c *client, j jobSpec, n int, traced bool, t0 time.Time) jobResult {
	r := jobResult{spec: j, traced: traced}
	start := time.Now()
	var st *serve.JobStatus
	var code int
	var err error
	if traced {
		u := newUnit(w.tr, "request", fmt.Sprintf("%s/%d", j.Tenant, n))
		st, code, err = c.submitTraced(w.refs, j, u, &r)
		r.ms = float64(time.Since(start)) / 1e6
		if err == nil && code == http.StatusAccepted {
			// The server's spans of this job carry the same job ID.
			u.root.End(hspan.Str("job", st.ID))
			err = c.serverSpans(st.ID, &r)
		} else {
			u.root.End()
		}
	} else {
		st, code, err = c.submitWait(w.refs, j)
		r.ms = float64(time.Since(start)) / 1e6
	}
	r.end = time.Since(t0)
	r.rejected = code == http.StatusForbidden || code == http.StatusTooManyRequests
	switch {
	case err != nil:
		w.t.fail("%s job %d (%s): %v", j.Tenant, n, j.class(), err)
	case code != http.StatusAccepted:
		w.t.fail("%s job %d (%s): status %d", j.Tenant, n, j.class(), code)
	default:
		if err := w.refs.verify(j, st); err != nil {
			w.t.fail("%v", err)
			return r
		}
		w.t.ok()
		r.ok = true
		r.metrics = st.Result.Metrics
		r.instret = st.Result.Metrics["sim.instret"]
		r.cells = st.Result.Cells
		if j.Kernel == "" {
			r.cells = 1
		}
	}
	return r
}

// serveRun is one serve-mixed run: references, the server and, in a
// traced run, the tracer the clients and the server share.
type serveRun struct {
	o       *options
	t       *tally
	base    dbt.Config
	metered bool // the metered tenant has its quota (false only in self-tests)
	refs    *references
	srv     *server
	tr      *hspan.Tracer
	sink    *memSink
}

func newServeRun(o *options, t *tally) *serveRun {
	w := &serveRun{o: o, t: t, base: dbt.DefaultConfig(), metered: true}
	if o.trace {
		w.sink = &memSink{}
		w.tr = hspan.New(w.sink)
	}
	return w
}

func runServe(o *options, t *tally) (metrics, error) {
	w := newServeRun(o, t)
	defer w.drop()
	if err := w.prepare(); err != nil {
		return nil, err
	}
	setupS, err := setup(w.drop, w.setup)
	if err != nil {
		return nil, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	mem := sampleMemory()
	results, elapsed, memMB := w.measure(mem)
	runtime.ReadMemStats(&ms1)
	if o.trace {
		l := w.layers(results, float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
		ov, err := detectOverhead(t)
		if err != nil {
			return nil, err
		}
		l.set("detect.overhead_frac", ov, "frac")
		return l, writeSpans(o, w.tr, w.sink)
	}
	return w.endToEnd(results, elapsed, setupS, memMB), nil
}

// prepare computes, once and outside the timed set-up, what the run
// checks against: the leak verdicts and the local references.
func (w *serveRun) prepare() error {
	if err := checkLeaks(w.t, w.base); err != nil {
		return err
	}
	refs, err := buildReferences(w.base)
	w.refs = refs
	return err
}

// drop stops the last set-up's server.
func (w *serveRun) drop() {
	if w.srv != nil {
		w.srv.stop()
		w.srv = nil
	}
}

// setup boots a fresh server and warms its shared caches with one job
// of each kind.
func (w *serveRun) setup() error {
	srv, err := startServer(w.metered, w.tr)
	if err != nil {
		return err
	}
	w.srv = srv
	c := newClient(srv.url)
	defer c.close()
	var warmups []jobSpec
	for _, k := range kernelNames() {
		warmups = append(warmups, jobSpec{Tenant: tenantLab, Kernel: k})
	}
	for _, v := range []attack.Variant{attack.V1, attack.V4} {
		for _, m := range []core.Mode{core.ModeUnsafe, core.ModeGhostBusters} {
			warmups = append(warmups, jobSpec{Tenant: tenantLab, Variant: v, Mode: m})
		}
	}
	for _, j := range warmups {
		st, code, err := c.submitWait(w.refs, j)
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", j.class(), err)
		}
		if code != http.StatusAccepted {
			return fmt.Errorf("warm-up %s: status %d", j.class(), code)
		}
		if err := w.refs.verify(j, st); err != nil {
			w.t.fail("warm-up: %v", err)
		} else {
			w.t.ok()
		}
	}
	return nil
}

// memJobs is the number of completed metered jobs at which serve-mixed
// reads its memory figure. Each metered job publishes its translations
// under a new tcache key (about 1 MB), so memory grows with the metered
// jobs served, not with time: read at a fixed count of them, the figure
// does not follow throughput. A 2-CPU host completes about 24 a second.
const memJobs = 100

// measure runs both clients' closed loops for the measured phase. It
// returns the jobs, the phase's length in seconds, and the peak of
// runtime-held memory up to the memJobs-th completed metered job (MiB).
func (w *serveRun) measure(mem *memWindows) ([]jobResult, float64, float64) {
	kernels := kernelNames()
	var wg sync.WaitGroup
	var mu sync.Mutex
	var all []jobResult
	memMB, metered := -1.0, 0
	t0 := time.Now()
	for _, tenant := range []string{tenantLab, tenantMetered} {
		s := newStream(w.o.seed, tenant, kernels)
		c := newClient(w.srv.url)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.close()
			w.loop(c, s, t0, func(r jobResult) {
				mu.Lock()
				all = append(all, r)
				if r.spec.Tenant == tenantMetered {
					if metered++; metered == memJobs {
						memMB = mem.peakSoFar()
					}
				}
				mu.Unlock()
			})
		}()
	}
	wg.Wait()
	elapsed := time.Since(t0).Seconds()
	mem.finish()
	if memMB < 0 {
		fmt.Printf("rss_peak_mb: only %d metered jobs completed, fewer than %d; the run's peak is reported\n", metered, memJobs)
		memMB = mem.peakSoFar()
	}
	fmt.Printf("rss_peak_mb %.3f: peak of runtime-held memory up to metered job %d\n", memMB, memJobs)
	return all, elapsed, memMB
}

// endToEnd folds the closed loop's jobs into the end-to-end metrics.
func (w *serveRun) endToEnd(results []jobResult, elapsed, setupS, rssMB float64) metrics {
	var lat []float64
	var done int
	var instret uint64
	served := map[string]bool{}
	windows := make([]int, int(elapsed)) // cells completed per whole second
	for _, r := range results {
		if !r.ok {
			lat = append(lat, math.Inf(1))
			continue
		}
		lat = append(lat, r.ms)
		done++
		instret += r.instret
		if r.spec.Kernel != "" {
			served[r.spec.Kernel] = true
		}
		if s := int(r.end / time.Second); s < len(windows) {
			windows[s] += r.cells
		}
	}
	perSweep := msPerSweep(windows)
	sd := w.slowdowns(served)
	fmt.Printf("serve-mixed: %d jobs (%d completed) in %.2fs; job_ms.p50 %.3f p90 %.3f (n=%d); %d of %d kernels served\n",
		len(results), done, elapsed, percentile(lat, 50), percentile(lat, 90), len(lat), len(served), len(w.refs.rows))
	fmt.Printf("sweep_ms.p50 is ms per %d cells served, median of %d one-second windows\n", sweepCells, len(perSweep))
	mixOf(results).print()
	printModelNote(sd)
	m := metrics{}
	m.set("setup_s", setupS, "s")
	m.set("sweep_ms.p50", finite(median(perSweep)), "ms")
	m.set("guest_mips", float64(instret)/elapsed/1e6, "MIPS")
	m.set("rss_peak_mb", rssMB, "MB")
	m.set("job_ms.p50", finite(percentile(lat, 50)), "ms")
	m.set("job_ms.p90", finite(percentile(lat, 90)), "ms")
	m.set("jobs_per_s", float64(done)/elapsed, "1/s")
	m.set("slowdown_gm.ghostbusters", sd[core.ModeGhostBusters], "%")
	m.set("slowdown_gm.nospec", sd[core.ModeNoSpeculation], "%")
	return m
}

// msPerSweep converts the cells completed in each one-second window
// into wall ms per 84-cell sweep. A window in which no cell completed
// reads +Inf, so a stall counts as beyond any limit.
func msPerSweep(windows []int) []float64 {
	out := make([]float64, len(windows))
	for i, cells := range windows {
		out[i] = math.Inf(1)
		if cells > 0 {
			out[i] = 1000 * sweepCells / float64(cells)
		}
	}
	return out
}

// mixFigures are what the served mix costs the shared tcache, by job
// class: the figures the workload was sized against.
type mixFigures struct {
	jobs                 map[string]int
	hits, misses, transl map[string]uint64
}

func mixOf(results []jobResult) mixFigures {
	f := mixFigures{jobs: map[string]int{}, hits: map[string]uint64{}, misses: map[string]uint64{}, transl: map[string]uint64{}}
	for _, r := range results {
		if !r.ok {
			continue
		}
		c := r.spec.class()
		f.jobs[c]++
		f.hits[c] += r.metrics["tcache.hits"]
		f.misses[c] += r.metrics["tcache.misses"]
		f.transl[c] += r.metrics["dbt.translations"]
	}
	return f
}

// hitRatio is the tcache hit ratio of the named classes together.
func (f mixFigures) hitRatio(classes ...string) float64 {
	var h, m uint64
	for _, c := range classes {
		h, m = h+f.hits[c], m+f.misses[c]
	}
	return ratio(float64(h), float64(h+m))
}

func (f mixFigures) translations() uint64 {
	var n uint64
	for _, t := range f.transl {
		n += t
	}
	return n
}

func (f mixFigures) print() {
	fmt.Printf("mix: jobs kernel %d, detect %d, metered %d (detect %.3f of all); tcache hit ratio metered %.3f, unmetered %.3f; %d translations\n",
		f.jobs["kernel"], f.jobs["detect"], f.jobs["metered"],
		ratio(float64(f.jobs["detect"]), float64(f.jobs["kernel"]+f.jobs["detect"]+f.jobs["metered"])),
		f.hitRatio("metered"), f.hitRatio("kernel", "detect"), f.translations())
}

// slowdowns is the geometric-mean slowdown over the kernels whose
// served sweeps matched their local rows, in percent.
func (w *serveRun) slowdowns(served map[string]bool) map[core.Mode]float64 {
	names := make([]string, 0, len(served))
	for k := range served {
		names = append(names, k)
	}
	sort.Strings(names)
	var rows []*harness.Row
	for _, k := range names {
		rows = append(rows, w.refs.rows[k])
	}
	return slowdowns(rows)
}

// layers folds the closed loop's jobs into the per-layer metrics.
func (w *serveRun) layers(results []jobResult, allocMB float64) metrics {
	l := zeroLayers()
	byClass := map[string][2][]float64{} // class → untraced, traced job ms
	var submit, queue, exec, cellMS, covered []float64
	var cells, rejects, mismatches float64
	var tracedCells, tracedInst, tracedBundles, translateNS, executeNS float64
	snap := obs.Snapshot{}
	for _, r := range results {
		if r.rejected {
			rejects++
		}
		if !r.ok {
			if r.traced && !r.rejected {
				mismatches++
			}
			continue
		}
		cells += float64(r.cells)
		snap.Add(r.metrics)
		v := byClass[r.spec.class()]
		if r.traced {
			v[1] = append(v[1], r.ms)
			submit = append(submit, r.submitMS)
			queue = append(queue, r.queueMS)
			exec = append(exec, r.execMS)
			cellMS = append(cellMS, r.cellMS...)
			covered = append(covered, r.covered)
			tracedCells += float64(r.cells)
			tracedInst += float64(r.instret)
			tracedBundles += float64(r.metrics["core.bundles"])
			translateNS += float64(r.translateNS)
			executeNS += float64(r.executeNS)
		} else {
			v[0] = append(v[0], r.ms)
		}
		byClass[r.spec.class()] = v
	}
	var overheads []float64
	for _, v := range byClass {
		overheads = append(overheads, ratio(median(v[1]), median(v[0])))
	}
	perSweep := func(name string) float64 { return ratio(float64(snap[name])*sweepCells, cells) }
	hits, misses := float64(snap["tcache.hits"]), float64(snap["tcache.misses"])
	l.set("harness.cell_ms.p50", median(cellMS), "ms")
	l.set("harness.cell_ms.p99", percentile(cellMS, 99), "ms")
	l.set("harness.alloc_mb_per_sweep", ratio(allocMB*sweepCells, cells), "MB")
	l.set("dbt.translate_ms", ratio(translateNS/1e6*sweepCells, tracedCells), "ms")
	l.set("dbt.exec_ms", ratio(executeNS/1e6*sweepCells, tracedCells), "ms")
	l.set("exec.ns_per_guest_inst", ratio(executeNS, tracedInst), "ns")
	l.set("exec.ns_per_bundle", ratio(executeNS, tracedBundles), "ns")
	l.set("dbt.translations", perSweep("dbt.translations"), "count")
	l.set("tcache.hits", perSweep("tcache.hits"), "count")
	l.set("tcache.misses", perSweep("tcache.misses"), "count")
	l.set("tcache.hit_ratio", ratio(hits, hits+misses), "frac")
	l.set("vliw.bundles", perSweep("core.bundles"), "count")
	l.set("cache.accesses", ratio(float64(snap["cache.hits"]+snap["cache.misses"])*sweepCells, cells), "count")
	l.set("riscv.interp_insts", perSweep("interp.insts"), "count")
	l.set("dbt.block_execs", perSweep("dbt.block_execs"), "count")
	l.set("serve.submit_ms.p50", median(submit), "ms")
	l.set("serve.queue_ms.p50", median(queue), "ms")
	l.set("serve.queue_ms.p90", percentile(queue, 90), "ms")
	l.set("serve.exec_ms.p50", median(exec), "ms")
	l.set("serve.kernel_job_ms.p50", median(byClass["kernel"][0]), "ms")
	l.set("serve.metered_job_ms.p50", median(byClass["metered"][0]), "ms")
	l.set("serve.detect_job_ms.p50", median(byClass["detect"][0]), "ms")
	l.set("serve.rejects", rejects, "count")
	cov := median(covered)
	l.set("trace.coverage_frac", cov, "frac")
	l.set("trace.residual_frac", 1-cov, "frac")
	l.set("trace.overhead_frac", geomean(overheads)-1, "frac")
	l.set("trace.cycle_mismatches", mismatches, "count")
	mixOf(results).print()
	fmt.Printf("serve-mixed traced: %d jobs, %.0f cells; per class untraced/traced job counts:", len(results), cells)
	for _, c := range []string{"kernel", "detect", "metered"} {
		fmt.Printf(" %s %d/%d", c, len(byClass[c][0]), len(byClass[c][1]))
	}
	fmt.Println()
	return l
}

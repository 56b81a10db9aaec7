package detect

import (
	"bytes"
	"testing"

	"ghostbusters/internal/attack"
	"ghostbusters/internal/core"
	"ghostbusters/internal/dbt"
	"ghostbusters/internal/obs"
)

// runAttack executes one attack variant with a fresh detector riding
// the tracer and returns the verdict plus the ground truth.
func runAttack(t *testing.T, v attack.Variant, mode core.Mode, dcfg Config) (*Report, *attack.Leakage) {
	t.Helper()
	det := New(dcfg)
	cfg := dbt.DefaultConfig()
	cfg.Mitigation = mode
	cfg.Tracer = obs.New(obs.LevelSpec, det)
	res, err := attack.Run(v, cfg, attack.Params{Secret: evalSecret})
	if cerr := cfg.Tracer.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	return det.Report(), res.Leakage
}

// An unsafe run of either variant leaks — and must alarm, with the
// alarm at or after the first secret-dependent fill minus the benefit
// of earlier probe-array refills (the latency is reported, not
// asserted: the detector keys on behaviour, not the secret).
func TestUnsafeAttacksAlarm(t *testing.T) {
	for _, v := range []attack.Variant{attack.V1, attack.V4} {
		rep, leak := runAttack(t, v, core.ModeUnsafe, Config{})
		if leak.BitsLeaked == 0 {
			t.Fatalf("%s: unsafe run leaked nothing; corpus broken", v)
		}
		if !rep.Alarm {
			t.Errorf("%s: unsafe leaking run did not alarm:\n%s", v, rep.Format())
		}
		if rep.Confidence < 0.5 {
			t.Errorf("%s: alarmed with confidence %v < 0.5", v, rep.Confidence)
		}
		if len(rep.Intervals) == 0 {
			t.Errorf("%s: alarmed but timeline is empty", v)
		}
		t.Logf("%s: rounds=%d slots=%d alarm@%d truth@%d",
			v, rep.Rounds, rep.Slots, rep.AlarmCycle, leak.FirstSecretFillCycle)
	}
}

// Modes that forbid speculative loads leave the detector nothing to
// key on: no transient refills, no rounds, no alarm.
func TestNoSpeculationModesStaySilent(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeNoSpeculation, core.ModeFence} {
		rep, leak := runAttack(t, attack.V1, mode, Config{})
		if leak.BitsLeaked != 0 {
			t.Fatalf("%s leaked %d bits; mitigation broken", mode, leak.BitsLeaked)
		}
		if rep.Alarm {
			t.Errorf("%s: no-speculation run alarmed:\n%s", mode, rep.Format())
		}
	}
}

// Same stream → byte-identical report, including across independent
// executions of the full simulation.
func TestReportDeterminism(t *testing.T) {
	rep1, _ := runAttack(t, attack.V1, core.ModeUnsafe, Config{})
	rep2, _ := runAttack(t, attack.V1, core.ModeUnsafe, Config{})
	j1, err := rep1.JSON()
	if err != nil {
		t.Fatal(err)
	}
	j2, err := rep2.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Errorf("two identical runs produced different reports:\n%s\n---\n%s", j1, j2)
	}
}

// recordSink captures the raw event stream for replay.
type recordSink struct{ evs []obs.Event }

func (r *recordSink) WriteEvents(evs []obs.Event) error {
	r.evs = append(r.evs, evs...)
	return nil
}
func (r *recordSink) Close() error { return nil }

// The classification must not depend on how the tracer batches the
// stream: replaying the same events one at a time, in odd-sized
// chunks, or in one giant batch must produce byte-identical reports.
func TestBatchSizeIndependence(t *testing.T) {
	rec := &recordSink{}
	cfg := dbt.DefaultConfig()
	cfg.Tracer = obs.New(obs.LevelSpec, rec)
	if _, err := attack.Run(attack.V1, cfg, attack.Params{Secret: evalSecret}); err != nil {
		t.Fatal(err)
	}
	if err := cfg.Tracer.Close(); err != nil {
		t.Fatal(err)
	}
	if len(rec.evs) == 0 {
		t.Fatal("no events recorded")
	}

	replay := func(chunk int) []byte {
		det := New(Config{})
		for i := 0; i < len(rec.evs); i += chunk {
			end := i + chunk
			if end > len(rec.evs) {
				end = len(rec.evs)
			}
			if err := det.WriteEvents(rec.evs[i:end]); err != nil {
				t.Fatal(err)
			}
		}
		j, err := det.Report().JSON()
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	want := replay(len(rec.evs))
	for _, chunk := range []int{1, 7, 1024} {
		if got := replay(chunk); !bytes.Equal(got, want) {
			t.Errorf("chunk size %d changed the report:\n%s\n---\n%s", chunk, got, want)
		}
	}
}

// The detector's phase tracks must decorate the timeline it reports.
func TestTrackEventsMatchIntervals(t *testing.T) {
	rep, _ := runAttack(t, attack.V1, core.ModeUnsafe, Config{})
	evs := rep.TrackEvents()
	if len(evs) == 0 {
		t.Fatal("alarmed report produced no track events")
	}
	var sawPhase, sawAlarm bool
	for _, e := range evs {
		if e.Kind != obs.EvCounter {
			t.Fatalf("track event with kind %d, want EvCounter", e.Kind)
		}
		switch e.Str {
		case obs.CtrDetectPhase:
			sawPhase = true
		case obs.CtrDetectAlarm:
			sawAlarm = true
			if e.Cycle != rep.AlarmCycle {
				t.Errorf("alarm track at cycle %d, report says %d", e.Cycle, rep.AlarmCycle)
			}
		}
	}
	if !sawPhase || !sawAlarm {
		t.Errorf("tracks missing phase (%v) or alarm (%v)", sawPhase, sawAlarm)
	}
}

// A flush-free stream (every polybench kernel) must classify every
// window benign and never arm the latch, whatever the load pattern.
func TestFlushFreeStreamIsBenign(t *testing.T) {
	det := New(Config{})
	var evs []obs.Event
	for i := uint64(0); i < 10000; i++ {
		evs = append(evs, obs.Event{Kind: obs.EvSpecLoad, Cycle: i * 17, PC: 0x100, Arg1: (i % 512) * 64})
	}
	if err := det.WriteEvents(evs); err != nil {
		t.Fatal(err)
	}
	rep := det.Report()
	if rep.Alarm || rep.Rounds != 0 || rep.PrimeWindows != 0 || rep.TriggerWindows != 0 {
		t.Errorf("flush-free stream classified as attack:\n%s", rep.Format())
	}
	if rep.BenignWindows == 0 {
		t.Error("no benign windows recorded")
	}
}

// One benign flush plus a cold refill must stay far below threshold.
func TestSingleFlushDoesNotAlarm(t *testing.T) {
	det := New(Config{})
	evs := []obs.Event{
		{Kind: obs.EvCacheFlush, Cycle: 100, Arg1: 64, Arg2: 1},
		{Kind: obs.EvSpecLoad, Cycle: 200, Arg1: 0x4000},
	}
	if err := det.WriteEvents(evs); err != nil {
		t.Fatal(err)
	}
	rep := det.Report()
	if rep.Alarm {
		t.Errorf("single flush+refill alarmed:\n%s", rep.Format())
	}
	if rep.Rounds != 1 {
		t.Errorf("rounds = %d, want 1", rep.Rounds)
	}
}

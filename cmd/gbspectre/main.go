// Command gbspectre runs the paper's Spectre proofs of concept on the
// simulated DBT-based processor:
//
//	gbspectre [-variant v1|v4] [-mode <mitigation>]
//	          [-secret hexbytes] [-protect] [-lineflush]
//	          [-traceout file] [-trace-format text|jsonl|perfetto]
//	          [-stats] [-json] [-audit] [-audit-json file]
//	          [-detect] [-detect-json file] [-spans file]
//	          [-matrix-json file]
//
// With no flags it runs both variants under every registered mitigation
// (the Section V-A matrix extended with the ported mitigation zoo);
// -matrix-json additionally writes the machine-readable leakage matrix
// (schema ghostbusters/leakmatrix/v1) with per-cell ground-truth bits
// leaked and slowdown versus unsafe. -traceout captures the attack's full event
// stream — block dispatches, speculative loads and squashes, cache
// flushes — timed in simulated cycles; with -trace-format perfetto the
// file loads directly in ui.perfetto.dev, making the transient window
// of the attack visible on a timeline.
//
// Every single-variant run prints the side-channel scoreboard: the
// ground truth of which secret-dependent cache lines the victim
// speculatively filled (bits leaked into the microarchitectural
// domain), alongside what the attacker's timing loop recovered. -stats
// prints the machine's counters; with -json the metrics snapshot is
// emitted in the same format as `gbrun -stats -json`, extended with the
// attack.* scoreboard metrics.
//
// -audit / -audit-json collect the poison-provenance audit during the
// attack and print the explainability table / write the JSON document
// (schema ghostbusters/audit/v1) — the mitigation explaining exactly
// which loads of the victim it pinned and why.
//
// -detect runs the online attack-phase detector against the attack's
// own event stream — the detector watching the attacker, with the
// scoreboard as ground truth: the verdict prints alongside the alarm's
// latency in cycles after the first secret-dependent speculative fill.
// -detect-json writes the verdict document (schema
// ghostbusters/detect/v1); either flag enables detection, and both
// compose with -traceout (the detection tracks are appended to the
// trace).
//
// -spans writes the attack's host-side span timeline as
// ghostbusters/span/v1 JSONL (host wall-clock nanoseconds). With
// `-traceout file -trace-format perfetto` the spans are also mirrored
// into the same Perfetto document on a second clock domain, so one
// file shows the attack's simulated-cycle events and its host-time
// cost side by side.
package main

import (
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"ghostbusters"
)

func main() {
	variant := flag.String("variant", "", "v1 | v4 (empty = full matrix)")
	mode := flag.String("mode", "unsafe", "mitigation mode, one of "+fmt.Sprint(ghostbusters.AllModes()))
	secretHex := flag.String("secret", "", "secret bytes in hex (empty = random)")
	protect := flag.Bool("protect", false, "read-protect the secret region")
	lineflush := flag.Bool("lineflush", false, "line-by-line cache flush (paper's RISC-V variant)")
	traceOut := flag.String("traceout", "", "write the attack's trace event stream to this file")
	traceFormat := flag.String("trace-format", "perfetto", "trace file format: text | jsonl | perfetto")
	stats := flag.Bool("stats", false, "print machine statistics after the attack")
	jsonOut := flag.Bool("json", false, "with -stats, print the metrics snapshot (machine + attack.*) as JSON")
	audit := flag.Bool("audit", false, "collect poison provenance and print the audit table")
	auditJSON := flag.String("audit-json", "", "write the audit as JSON (schema ghostbusters/audit/v1) to this file")
	detectFlag := flag.Bool("detect", false, "run the online attack-phase detector against the attack and print its verdict")
	detectJSON := flag.String("detect-json", "", "write the detection verdict as JSON (schema ghostbusters/detect/v1) to this file")
	matrixJSON := flag.String("matrix-json", "", "matrix mode: write the leakage matrix as JSON (schema ghostbusters/leakmatrix/v1) to this file")
	spansOut := flag.String("spans", "", "write the host-side span timeline (JSONL, schema ghostbusters/span/v1) to this file")
	flag.Parse()

	cfg := ghostbusters.DefaultConfig()

	if *variant == "" {
		// Matrix mode fixes its own variants, modes and parameters, so
		// every single-run flag is meaningless here. Reject them all at
		// once — flag.Visit walks only explicitly-set flags, in
		// lexicographical order, so the error is complete and stable
		// rather than whichever map key a range happened to yield.
		singleRunOnly := map[string]bool{
			"audit": true, "audit-json": true, "detect": true,
			"detect-json": true, "json": true, "lineflush": true,
			"mode": true, "protect": true, "secret": true, "spans": true,
			"stats": true, "trace-format": true, "traceout": true,
		}
		var offending []string
		flag.Visit(func(f *flag.Flag) {
			if singleRunOnly[f.Name] {
				offending = append(offending, "-"+f.Name)
			}
		})
		if len(offending) > 0 {
			verb := "needs"
			if len(offending) > 1 {
				verb = "need"
			}
			fail(fmt.Errorf("%s %s a single run: pick a -variant", strings.Join(offending, ", "), verb))
		}
		table, lm, err := ghostbusters.RunLeakageMatrix(cfg)
		fail(err)
		fmt.Print(table)
		if *matrixJSON != "" {
			out, err := lm.JSON()
			fail(err)
			fail(os.WriteFile(*matrixJSON, out, 0o644))
		}
		return
	}
	if *matrixJSON != "" {
		fail(fmt.Errorf("-matrix-json applies to the matrix: drop -variant"))
	}

	var v ghostbusters.AttackVariant
	switch *variant {
	case "v1":
		v = ghostbusters.SpectreV1
	case "v4":
		v = ghostbusters.SpectreV4
	default:
		fail(fmt.Errorf("unknown variant %q", *variant))
	}
	m, err := ghostbusters.ParseMode(*mode)
	fail(err)

	params := ghostbusters.AttackParams{ProtectSecret: *protect}
	if *lineflush {
		params.Flush = ghostbusters.FlushLineByLine
	}
	if *secretHex != "" {
		b, err := hex.DecodeString(*secretHex)
		fail(err)
		params.Secret = b
	}

	var traceFile *os.File
	var fileSink ghostbusters.TraceSink
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		fail(err)
		traceFile = f
		fileSink, err = ghostbusters.TraceSinkFor(*traceFormat, f)
		fail(err)
	}
	var detector *ghostbusters.Detector
	if *detectFlag || *detectJSON != "" {
		detector = ghostbusters.NewDetector(ghostbusters.DetectConfig{})
	}
	switch {
	case fileSink != nil && detector != nil:
		cfg.Tracer = ghostbusters.NewTracer(ghostbusters.TraceSpec, ghostbusters.NewTraceTee(fileSink, detector))
	case fileSink != nil:
		cfg.Tracer = ghostbusters.NewTracer(ghostbusters.TraceSpec, fileSink)
	case detector != nil:
		cfg.Tracer = ghostbusters.NewTracer(ghostbusters.TraceSpec, detector)
	}
	cfg.Audit = *audit || *auditJSON != ""

	// The host-side span layer: a JSONL file, plus a mirror into the
	// -traceout Perfetto document when one is open, so the attack's
	// guest-cycle events and the host-ns timeline land in one file.
	var spanTracer *ghostbusters.SpanTracer
	var spanFile *os.File
	var root ghostbusters.Span
	if *spansOut != "" {
		f, err := os.Create(*spansOut)
		fail(err)
		spanFile = f
		sinks := []ghostbusters.SpanSink{ghostbusters.NewSpanJSONLSink(f)}
		if pf, ok := ghostbusters.NewSpanPerfettoSink(fileSink); ok {
			sinks = append(sinks, pf)
		}
		spanTracer = ghostbusters.NewSpanTracer(ghostbusters.NewSpanMultiSink(sinks...))
		root = spanTracer.Start("gbspectre",
			ghostbusters.SpanStr("variant", *variant), ghostbusters.SpanStr("mode", *mode))
	}

	as := root.Child("attack")
	res, err := ghostbusters.RunAttack(v, ghostbusters.WithMitigation(cfg, m), params)
	if err == nil {
		as.End(ghostbusters.SpanInt("cycles", int64(res.Cycles)),
			ghostbusters.SpanInt("bytes_leaked", int64(res.BytesCorrect)))
	} else {
		as.End(ghostbusters.SpanStr("outcome", "error"))
	}
	var detectRep *ghostbusters.DetectReport
	if detector != nil && err == nil {
		// Flush the stream tail into the detector and append the
		// inferred phase/rounds/alarm tracks to the still-open trace.
		_ = cfg.Tracer.Flush()
		detectRep = detector.Report()
		detectRep.EmitTracks(cfg.Tracer)
	}
	// Close the span layer before the cycle tracer: its Perfetto mirror
	// writes into the document the tracer's Close terminates.
	if spanTracer != nil {
		root.End()
		if cerr := spanTracer.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "gbspectre: spans:", cerr)
		}
		if cerr := spanFile.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "gbspectre: spans:", cerr)
		}
	}
	if cfg.Tracer != nil {
		// Flush even when the attack errored, so a partial trace of the
		// failing run survives for inspection.
		if cerr := cfg.Tracer.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "gbspectre: trace:", cerr)
		}
		if traceFile != nil {
			if cerr := traceFile.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "gbspectre: trace:", cerr)
			}
		}
	}
	fail(err)
	fmt.Printf("%s under %s\n", res.Variant, m)
	fmt.Printf("  secret:    %x\n", res.Secret)
	fmt.Printf("  recovered: %x\n", res.Recovered)
	fmt.Printf("  leaked %d/%d bytes in %d cycles\n", res.BytesCorrect, len(res.Secret), res.Cycles)
	fmt.Printf("  speculative loads %d, MCB recoveries %d, patterns detected %d\n",
		res.Stats.SpecLoads, res.Stats.Recoveries, res.Stats.PatternsFound)
	if res.Success() {
		fmt.Println("  => the secret LEAKED")
	} else {
		fmt.Println("  => the attack FAILED")
	}
	fmt.Println("side-channel scoreboard:")
	fmt.Print(indent(res.Leakage.String()))
	if detectRep != nil {
		fmt.Println("online detection:")
		fmt.Print(indent(detectRep.Format()))
		if detectRep.Alarm && res.Leakage.FirstSecretFillCycle != 0 {
			fmt.Printf("  alarm latency: %+d cycles vs the first secret-dependent speculative fill\n",
				int64(detectRep.AlarmCycle)-int64(res.Leakage.FirstSecretFillCycle))
		}
		if *detectJSON != "" {
			out, err := detectRep.JSON()
			fail(err)
			fail(os.WriteFile(*detectJSON, out, 0o644))
		}
	}
	if *audit || *auditJSON != "" {
		if res.Audit == nil {
			fail(fmt.Errorf("audit requested but none collected"))
		}
		if *audit {
			fmt.Print(res.Audit.Format())
		}
		if *auditJSON != "" {
			out, err := json.MarshalIndent(res.Audit.Doc(), "", "  ")
			fail(err)
			fail(os.WriteFile(*auditJSON, append(out, '\n'), 0o644))
		}
	}
	if *stats {
		snap := res.Stats.Snapshot(res.Cycles)
		res.Leakage.AddMetrics(snap)
		if detectRep != nil {
			detectRep.AddMetrics(snap)
		}
		if *jsonOut {
			out, err := json.MarshalIndent(snap, "", "  ")
			fail(err)
			fmt.Println(string(out))
		} else {
			s := res.Stats
			fmt.Printf("interp-insts=%d blocks=%d traces=%d block-execs=%d bundles=%d\n",
				s.InterpInsts, s.Blocks, s.Traces, s.BlockExecs, s.Bundles)
			fmt.Printf("spec-loads=%d squashed=%d recoveries=%d side-exits=%d\n",
				s.SpecLoads, s.SpecSquash, s.Recoveries, s.SideExits)
			fmt.Printf("patterns=%d risky-loads=%d guard-edges=%d compile-errors=%d\n",
				s.PatternsFound, s.RiskyLoads, s.GuardEdges, s.CompileErrs)
		}
	}
}

// indent prefixes every line with two spaces, matching the rest of the
// report.
func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = "  " + l
	}
	return strings.Join(lines, "\n") + "\n"
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "gbspectre:", err)
		os.Exit(1)
	}
}

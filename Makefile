# Development gate for the GhostBusters reproduction.
#
#   make check   gofmt + vet + race-enabled tests (what CI runs)
#   make test    fast test pass
#   make fuzz    run every native fuzz target for FUZZTIME (default 30s)
#   make bench   host-performance benchmarks, benchstat-compatible output
#   make fig4    print the Figure 4 table (parallel harness)
#   make perf    record the Figure 4 perf JSON (BENCH_fig4.json schema)
#   make profile-warm  CPU profile of warm, default-size Fig. 4 sweeps on
#                one worker (BenchmarkFig4Warm) into warm.prof; read it
#                with `go tool pprof -top ghostbusters.test warm.prof`
#   make trace   capture a Perfetto trace of the Spectre v1 PoC
#   make trace-v4  same for Spectre v4 (MCB rollbacks on the timeline)
#   make audit   run the v1 PoC with the leakage audit layer on
#   make detect-eval  score the online attack-phase detector over the
#                labeled corpus (precision/recall/FPR + scored JSON)
#   make serve-smoke  end-to-end smoke of the gbserve daemon
#   make soak    the multi-tenant chaos soak test under the race detector

GO ?= go
FUZZTIME ?= 30s

.PHONY: build fmt test vet race check fuzz bench bench-quick fig4 perf profile-warm trace trace-v4 audit detect-eval serve-smoke soak

build:
	$(GO) build ./...

# gofmt -l lists nonconforming files; any output fails the gate.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

check: build fmt vet race

# go test -fuzz accepts one target pattern per package invocation, so
# the targets run sequentially. Interesting inputs found here land in
# the build cache; minimal crashers land in testdata/fuzz/ — commit
# those as regression seeds.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$'       -fuzztime $(FUZZTIME) ./internal/riscv
	$(GO) test -run '^$$' -fuzz '^FuzzAsmRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/riscv
	$(GO) test -run '^$$' -fuzz '^FuzzStep$$'         -fuzztime $(FUZZTIME) ./internal/riscv
	$(GO) test -run '^$$' -fuzz '^FuzzInterpVsVLIW$$' -fuzztime $(FUZZTIME) ./internal/dbt
	$(GO) test -run '^$$' -fuzz '^FuzzWindowClassifier$$' -fuzztime $(FUZZTIME) ./internal/detect
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeBlock$$' -fuzztime $(FUZZTIME) ./internal/vliw
	$(GO) test -run '^$$' -fuzz '^FuzzTCacheDocument$$' -fuzztime $(FUZZTIME) ./internal/tcache

# Full benchmark sweep across every package, with allocation counts.
# The output is benchstat-compatible: run it on two checkouts with
# -count as below and feed both logs to benchstat.
#   make bench BENCHFLAGS='-count 10' > new.txt
bench:
	$(GO) test -bench . -benchmem -run '^$$' $(BENCHFLAGS) ./...

# One quick iteration of the top-level table benchmarks only.
bench-quick:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

fig4:
	$(GO) run ./cmd/gbbench -exp fig4

perf:
	$(GO) run ./cmd/gbbench -exp fig4 -perfjson BENCH_fig4.json

# The execution-layer profile: 20 timed sweeps of the Fig. 4 matrix at
# default kernel sizes, one worker, on artifact and translation caches
# warmed by an untimed sweep. The profile spans the whole test binary,
# so each benchmark round's warm-up sweep (translation included) is in
# it too; 20 sweeps keep that share small. The test binary is kept next
# to the profile so pprof can symbolize it.
profile-warm:
	$(GO) test -run '^$$' -bench '^BenchmarkFig4Warm$$' -benchtime 20x \
		-cpuprofile warm.prof -o ghostbusters.test .
	@echo "wrote warm.prof — go tool pprof -top ghostbusters.test warm.prof"

# Full-detail trace of the Spectre v1 attack, timed in simulated
# cycles. Open trace_v1.json at https://ui.perfetto.dev to watch the
# transient window: flushes, the speculative load of the secret, and
# the probe loop.
trace:
	$(GO) run ./cmd/gbspectre -variant v1 -traceout trace_v1.json -trace-format perfetto
	@echo "wrote trace_v1.json — open it at https://ui.perfetto.dev"

# Same for the v4 variant: the interesting tracks are the spec-squash /
# recovery instants (the MCB repairing architectural state every round
# while the cache still leaks) and the counter tracks — MCB occupancy
# and the ground-truth leaked-bytes staircase (see EXPERIMENTS.md E1a).
trace-v4:
	$(GO) run ./cmd/gbspectre -variant v4 -traceout trace_v4.json -trace-format perfetto
	@echo "wrote trace_v4.json — open it at https://ui.perfetto.dev"

# Leakage audit of the v1 PoC under the mitigation: the explainability
# table (why each load was pinned, with its provenance chain) plus the
# machine-readable document (schema ghostbusters/audit/v1).
audit:
	$(GO) run ./cmd/gbspectre -variant v1 -mode ghostbusters -audit -audit-json audit_v1.json
	@echo "wrote audit_v1.json"

# Detection accuracy over the labeled corpus: every polybench kernel
# (benign) and both Spectre PoCs under every registered mitigation,
# scored against the scoreboard's ground truth. Prints the
# precision/recall/FPR headline and the per-cell verdict table; the
# scored matrix (schema ghostbusters/detect-eval/v1) lands in
# detect_eval.json. -n 8 shrinks the kernels — the benign corpus only
# needs to span many detector windows, not run at full problem sizes.
detect-eval:
	$(GO) run ./cmd/gbbench -exp detect -n 8 -detect-json detect_eval.json
	@echo "wrote detect_eval.json"

# End-to-end smoke of the simulation service: boots a real gbserve
# process, drives the HTTP API (fig4 byte-identity, quotas, metrics)
# and checks the SIGTERM drain. SMOKELOGS keeps the server log and
# intermediate artifacts (default: a temp dir).
serve-smoke:
	./scripts/serve_smoke.sh $(SMOKELOGS)

# The multi-tenant chaos soak under the race detector: hundreds of
# concurrent jobs across quota-limited tenants with fault injection,
# checking ledger invariants and goroutine hygiene afterwards.
soak:
	$(GO) test -race -run TestSoak -count=1 -v ./internal/serve

GO ?= go
BIN_DIR := bin

.PHONY: all build test race trace-smoke trace-stat server-smoke server-race bench bench-workers bench-fft bench-fft-smoke bench-compare vet lint lint-perf lint-perf-baseline lint-conc bench-lint check

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Tier-1 concurrency lane: the full suite under the race detector. The
# parallel SOCS loops, the plan cache, the fullchip tile pool and the
# FFT-engine equivalence tests (batch vs a dense oracle on the same
# spectrum at tolerance 0, batch vs the dense reference engine to rounding)
# all run here — new equivalence tests hook in by living in the suite.
race:
	$(GO) test -race ./...

# The trace lanes run tracestat as a built binary, not via `go run`: go
# run collapses the program's exit status to 1, which would defeat the
# exit-2 assertion of the compare gate below.
TRACESTAT := $(BIN_DIR)/tracestat

$(TRACESTAT): FORCE
	@mkdir -p $(BIN_DIR)
	$(GO) build -o $(TRACESTAT) ./cmd/tracestat

# Observability lane (runs alongside race): a small end-to-end iltopt run
# with tracing on, then `tracestat -check` re-validates the JSONL schema,
# the phase-timer wall-clock coverage and the run manifest.
# The default batch engine records litho.socs around its row pass and
# litho.fft_inverse around its column pass at any worker count, so the
# validated trace exercises the full phase vocabulary on any host;
# -workers 1 just keeps the small run single-threaded.
trace-smoke: $(TRACESTAT)
	mkdir -p artifacts
	$(GO) run ./cmd/iltopt -case 1 -n 256 -field 1024 -kernels 12 -iterdiv 10 \
		-workers 1 -recipe exact -trace artifacts/trace_smoke.jsonl -progress \
		-manifest artifacts/trace_smoke_manifest.json
	$(TRACESTAT) -check -manifest artifacts/trace_smoke_manifest.json \
		artifacts/trace_smoke.jsonl

# Trace-analytics lane: a short deterministic optimization writes a trace,
# `tracestat -check` validates its schema, tracestat renders the analytics
# report into artifacts/, and the compare gate proves the regression detector
# works — the committed A/B fixture pair carries an injected +20% per-call
# slowdown in litho.socs, so `tracestat -compare` MUST exit 2 (any other
# status, including 0, fails the lane).
trace-stat: $(TRACESTAT)
	mkdir -p artifacts
	$(GO) run ./cmd/iltopt -case 1 -n 128 -field 512 -kernels 8 -iterdiv 10 \
		-workers 1 -recipe fast -trace artifacts/trace_stat.jsonl
	$(TRACESTAT) -check -min-coverage 0 artifacts/trace_stat.jsonl
	$(TRACESTAT) artifacts/trace_stat.jsonl | tee artifacts/trace_stat_report.txt
	$(TRACESTAT) -compare \
		internal/tracestat/testdata/compare_old.jsonl \
		internal/tracestat/testdata/compare_new.jsonl -threshold 10% \
		> artifacts/trace_stat_compare.txt 2>&1; st=$$?; \
		cat artifacts/trace_stat_compare.txt; test $$st -eq 2

# Serving lane, part 1: the iltserver self-contained smoke flow — boot the
# daemon on an ephemeral port, submit one small job over real HTTP, stream
# its SSE progress to completion, check the result, /healthz and /metrics,
# then drain. No external tools (curl, jq) needed.
server-smoke:
	$(GO) run ./cmd/iltserver -smoke

# Serving lane, part 2: the server package under the race detector — the
# soak test (concurrent jobs, bit-identical results, bounded heap, no
# goroutine leaks), cancellation/drain, SSE golden stream and the fuzz seed
# corpus all run here.
server-race:
	$(GO) test -race -count=1 ./internal/server

vet:
	$(GO) vet ./...

# Static-analysis lane: the seventeen repo-specific analyzers (floatcmp,
# maporder, scratchalias, hotalloc, errcheck, gridres, leasepath,
# atomicfield, the perf-invariant set: bce, escape, inline, ctxflow,
# timerleak, plus the concurrency-protocol set: lockorder, chanprotocol,
# wgmisuse, gorolife) over every package. The compiler-fact rules read the
# checked-in lint.hot manifest and ratchet through lint-perf.baseline —
# the run fails only on findings beyond the recorded debt. The binary is
# built once into bin/ (the go build cache makes rebuilds near-free)
# instead of paying `go run`'s link-and-copy on every invocation; on
# findings it exits 1 with per-rule counts. See README ("iltlint") and
# DESIGN.md ("Static analysis", "Performance invariants"). The ./...
# wildcard skips testdata, so the deliberately violating lint fixtures are
# not linted.
ILTLINT := $(BIN_DIR)/iltlint

$(ILTLINT): FORCE
	@mkdir -p $(BIN_DIR)
	$(GO) build -o $(ILTLINT) ./cmd/iltlint

FORCE:

lint: $(ILTLINT)
	$(ILTLINT) -baseline lint-perf.baseline ./...

# Perf-invariant lane on its own: just the five serving/compiler-fact
# rules against the ratchet, the command CI's lint-perf job runs.
lint-perf: $(ILTLINT)
	$(ILTLINT) -rules bce,escape,inline,ctxflow,timerleak \
		-baseline lint-perf.baseline ./...

# Re-record the ratchet after deliberately accepting new hot-path debt
# (reviewed like any other baseline change).
lint-perf-baseline: $(ILTLINT)
	$(ILTLINT) -rules bce,escape,inline,ctxflow,timerleak \
		-baseline-write lint-perf.baseline ./...

# Concurrency-protocol lane on its own: the four deadlock/lifetime rules
# (lockorder, chanprotocol, wgmisuse, gorolife) over every package. The
# tree ships clean, so there is deliberately no baseline file — any
# finding (a seeded lock-order inversion prints its full cycle with both
# witness positions) fails the lane outright. See DESIGN.md,
# "Concurrency invariants".
lint-conc: $(ILTLINT)
	$(ILTLINT) -rules lockorder,chanprotocol,wgmisuse,gorolife ./...

# Lint-perf trajectory: median wall time of the full seventeen-rule suite
# over ./... at workers=1 vs workers=GOMAXPROCS, recorded in BENCH_LINT.json.
bench-lint: $(ILTLINT)
	$(ILTLINT) -selfbench BENCH_LINT.json ./...

# The pre-commit umbrella: everything a change must pass before review.
check: build vet lint test

bench:
	$(GO) test -bench . -benchmem ./...

# Workers sweep: times forward/gradient on a 512² clip at worker counts
# {1,2,4,8} and records the speedup curve (plus host CPU metadata) in
# BENCH_WORKERS.json.
bench-workers:
	$(GO) run ./cmd/benchgen -sweep -n 512 -field 2048 -kernels 24 -reps 3 \
		-workers 1,2,4,8 -json BENCH_WORKERS.json

# FFT-engine sweep: times the exact forward simulation and one gradient
# per FFT engine (dense reference / fused batch) at workers=1 and records
# the batch speedups in BENCH_FFT.json plus a benchstat-format sidecar
# BENCH_FFT.txt.
bench-fft:
	$(GO) run ./cmd/benchgen -fftsweep -sizes 256,512,1024,2048 -field 2048 \
		-kernels 24 -reps 3 -json BENCH_FFT.json

# CI smoke lane: a seconds-long sweep at tiny sizes that exercises both
# engines (reference and the fused batch path, forward and gradient) and
# gates against the committed BENCH_FFT.smoke.json baseline via the
# bench-compare machinery;
# the gate fails if no (size, engine) pair was compared. The 75%
# threshold is deliberately loose — shared CI hosts are noisy — it exists
# to catch a pruning/fusion path silently falling back to dense work (a
# 2-10× slowdown), not single-digit drift.
bench-fft-smoke:
	$(GO) run ./cmd/benchgen -fftsweep -sizes 64,128 -field 2048 \
		-kernels 8 -reps 2 -json BENCH_FFT.smoke.new.json
	$(MAKE) bench-compare OLD=BENCH_FFT.smoke.json NEW=BENCH_FFT.smoke.new.json GATE=75

# Diff two bench-fft runs: OLD is the checked-in trajectory artifact, NEW a
# fresh run (make bench-fft with -json BENCH_FFT.new.json, or copy). Uses
# benchstat on the .txt sidecars when it is installed (no module
# dependency is added), and always prints the built-in JSON diff. Set
# GATE=<pct> to fail when any engine regressed by more than that percent.
OLD ?= BENCH_FFT.json
NEW ?= BENCH_FFT.new.json
GATE ?= 0
bench-compare:
	@if command -v benchstat >/dev/null 2>&1; then \
		benchstat $(OLD:.json=.txt) $(NEW:.json=.txt); \
	else \
		echo "benchstat not installed; using built-in diff"; \
	fi
	$(GO) run ./cmd/benchgen -compare -old $(OLD) -new $(NEW) -gate $(GATE)

# Xylem reproduction — convenience targets. Everything is plain `go`
# underneath; the Makefile just names the common invocations.

GO ?= go

.PHONY: all build test test-fast vet race bench bench-full bench-smoke bench-parallel mg-smoke greens-smoke kernel-smoke obs-smoke resume-smoke serve-smoke fleet-smoke loadbench profile figures faults-smoke examples clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Full gate: vet plus the race-instrumented test suite. The explicit
# timeout covers the detector's ~10-20x slowdown on the sweep tests.
test: vet
	$(GO) test -race -timeout 30m ./...

# Plain test run without race instrumentation (tier-1 equivalent).
test-fast:
	$(GO) test ./...

# The simulator is single-threaded per run, but the race detector still
# guards the test harness itself.
race:
	$(GO) test -race ./internal/...

# Regenerate every paper figure at reduced scale (~20 min).
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x -run XXX -timeout 0 . | tee bench_output.txt

# Paper-scale figures (32x32 grid, 400k-instruction traces; ~1 h).
bench-full:
	XYLEM_BENCH_FULL=1 $(GO) test -bench=. -benchmem -benchtime=1x -run XXX -timeout 0 . | tee bench_output_full.txt

# CI smoke: one reduced-scale pass of the solver micro-benchmark and one
# figure benchmark (-short switches the harness to the quick test scale).
bench-smoke:
	$(GO) test -short -bench 'BenchmarkThermalSteadyState|BenchmarkFig08TemperatureReduction' -benchtime=1x -run XXX -timeout 20m .

# Jacobi vs multigrid vs parallel Figure 7 timing; writes BENCH_parallel.json.
bench-parallel:
	$(GO) run ./cmd/xylem parbench -grid 24 -apps lu-nas,fft,is,radix,mg

# CI gate for the multigrid preconditioner: a short parbench comparison
# that fails unless MG strictly cuts total CG iterations below Jacobi, the
# MG tables match Jacobi's at print precision, the parallel tables are
# byte-identical to the serial ones and the fast-path tables match MG's.
mg-smoke:
	$(GO) run ./cmd/xylem parbench -check -grid 16 -apps lu-nas,fft -instr 60000 -freqs 2.4,3.5 -o /tmp/bench_mg_smoke.json

# CI gate for the Green's-function fast path: parbench at bench scale
# (24x24 grid) builds the per-scheme bases (one CG solve per column),
# runs the Figure 7 sweep both reduced and full, and -check fails unless
# the fast-path tables match the MG tables at print precision and the
# per-query wall is at least 5x below MG's (the basis precompute is
# amortised and reported separately).
greens-smoke:
	$(GO) run ./cmd/xylem parbench -check -grid 24 -apps lu-nas,fft -instr 60000 -freqs 2.4,3.5 -o /tmp/bench_greens_smoke.json

# CI gate for the solver kernels: a short run of the three kernel
# micro-benchmarks (stencil apply, Thomas sweep, CG's fused apply+dot
# pass). mg-smoke gates the Figure 7 tables these kernels produce.
kernel-smoke:
	$(GO) test -short -bench 'BenchmarkStencilApply|BenchmarkThomasSweep|BenchmarkFusedReduction' -benchtime=1x -run XXX -timeout 10m .

# CI gate for the observability layer: run a small figure bare and with
# a live metrics endpoint (served in-process on 127.0.0.1:0, scraped
# over HTTP), and fail unless the tables are byte-identical and the
# scrape carried solver metrics and trace spans.
obs-smoke:
	$(GO) run ./cmd/xylem obs-smoke -id 7 -grid 16 -apps lu-nas,fft -instr 60000 -freqs 2.4,3.5 -workers 4

# CI gate for the checkpoint/resume engine: run a small figure, kill it
# at a checkpoint boundary via the crash-injection hook, resume from the
# snapshots it left, and fail unless the resumed table is byte-identical
# and (at -workers 1) the combined solver-work counters match exactly.
resume-smoke:
	$(GO) run ./cmd/xylem resume-smoke -id 7 -grid 16 -apps lu-nas,fft -instr 60000 -freqs 2.4,3.5 -workers 1 -kill-after 3

# CI gate for the serving daemon: start xylemd in-process with a live
# metrics sink, fire mixed CG/fast-path traffic through the admission
# queue → batcher → artifact cache, and fail unless there are zero
# errors, the cache was reused, batches formed, identical requests got
# byte-identical bodies, app-mode responses match the figure pipeline,
# and the serve metrics appear on the Prometheus scrape.
serve-smoke:
	$(GO) run ./cmd/xylem serve-smoke -grid 16 -n 24 -width 4

# CI gate for the fleet replay engine: run a small seeded replay
# uninterrupted, rerun it with checkpoints and a crash injected at the
# second snapshot, resume at a different worker setting, and fail unless
# the two final fleet reports are byte-identical.
fleet-smoke:
	$(GO) run ./cmd/xylem fleet-smoke -stacks 16 -events 64 -seed 7

# Serving load benchmark: closed- and open-loop phases with
# deterministic seeded arrivals and mixed tenants against fresh daemons
# per cache/batch configuration; writes BENCH_serve.json and (with
# -check) gates warm batched p50 <= 0.5x cold solo p50.
loadbench:
	$(GO) run ./cmd/xylem loadbench -check -grid 24 -n 24 -width 8 -out BENCH_serve.json

# CPU+heap profile of a Figure 7 sweep; inspect with
# `go tool pprof cpu.prof`.
profile:
	$(GO) run ./cmd/xylem figure -id 7 -grid 24 -apps lu-nas,fft,is -cpuprofile cpu.prof -memprofile mem.prof

# Individual figures through the CLI, e.g. `make figures FIG=8`.
FIG ?= 8
figures:
	$(GO) run ./cmd/xylem figure -id $(FIG)

# Quick fault-injection sweep of the guarded DTM (sanity smoke, ~1 min).
faults-smoke:
	$(GO) run ./cmd/xylem faults -quick -grid 16 -seeds 2 -steps 60

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/sensitivity
	$(GO) run ./examples/customdie

clean:
	$(GO) clean ./...

# Xylem reproduction — convenience targets. Everything is plain `go`
# underneath; the Makefile just names the common invocations.

GO ?= go

.PHONY: all build test test-fast vet race bench bench-full bench-smoke kernel-smoke profile figures faults-smoke examples clean

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

# The race detector guards cpusim's read-ahead helper (a second goroutine
# per run when a CPU is free), fleet's lookahead and solver pool, and the
# test harness itself. The timeout matches `make test` and CI:
# internal/perf alone takes ~13-15 min under race on a 2-vCPU host.
race:
	$(GO) test -race -timeout 30m ./internal/...

# Regenerate every paper figure at reduced scale (~1.5 min on a 2-vCPU host).
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x -run XXX -timeout 0 . | tee bench_output.txt

# Paper-scale figures (32x32 grid, 400k-instruction traces; ~3 min on a
# 2-vCPU host).
bench-full:
	XYLEM_BENCH_FULL=1 $(GO) test -bench=. -benchmem -benchtime=1x -run XXX -timeout 0 . | tee bench_output_full.txt

# CI smoke: one reduced-scale pass of the solver micro-benchmark and one
# figure benchmark (-short switches the harness to the quick test scale).
bench-smoke:
	$(GO) test -short -bench 'BenchmarkThermalSteadyState|BenchmarkFig08TemperatureReduction' -benchtime=1x -run XXX -timeout 20m .

# CI gate for the hot kernels: a short run of the three solver kernel
# micro-benchmarks (stencil apply, Thomas sweep, CG's fused apply+dot
# pass) and of two Figure 7 cpusim activity runs (BenchmarkCpusimRun's
# lu-nas and is, the least and most memory-bound apps). The cpusim runs go
# at -cpu 1 (streams read inline) and -cpu 2 (drawn on the read-ahead
# helper). The Go tests gate the Figure 7 tables these kernels produce and
# cpusim's results bit for bit.
kernel-smoke:
	$(GO) test -short -bench 'BenchmarkStencilApply|BenchmarkThomasSweep|BenchmarkFusedReduction' -benchtime=1x -run XXX -timeout 10m .
	$(GO) test -short -bench 'BenchmarkCpusimRun' -cpu 1,2 -benchtime=1x -run XXX -timeout 10m .

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

# Every example, end to end.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/sensitivity
	$(GO) run ./examples/customdie
	$(GO) run ./examples/dtmtrace
	$(GO) run ./examples/threadplacement
	$(GO) run ./examples/migration

clean:
	$(GO) clean ./...

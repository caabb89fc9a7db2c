# Build/test entry points for CI and local development.
#
#   make build      — compile everything
#   make vet        — go vet
#   make lint       — gofmt -l (fails on unformatted files) + go vet
#   make test       — full-fidelity suite (slow; shrinks with core count)
#   make test-short — reduced-scale suite, well under 30 s
#   make test-race  — race-enabled short suite, run twice so reused
#                     scratch (session pools, FFT plan pools, decode
#                     arenas, impairment chains) is exercised across
#                     repeated steady-state calls
#   make test-purego — dsp, phy and core built with the purego tag, so
#                     the portable Go fallbacks of the SSE2 kernels
#                     (kern's, and the FFT butterflies) run everywhere
#                     the assembly normally would
#   make test-race-correlate — correlation engine + store matching under
#                     the race detector at one and at two Ps, so the
#                     receiver's concurrent store-match leg runs both
#                     interleaved and truly in parallel
#   make bench      — paper-figure benchmarks (root package)
#   make bench-correlate — naive-vs-FFT correlation engine benchmarks
#   make bench-decode — polyphase decode hot-path benchmarks
#   make bench-impair — impairment-engine benchmarks: per-model costs
#                      plus static-vs-impaired Air.MixInto
#   make bench-check — session-engine benchmark-regression gate:
#                      trimmed sweeps, pooled replay identity +
#                      calibrated-unit diff against BENCH_session.json
#                      (now including the harsh-channel suite), plus the
#                      kern, k-way, campaign, serve and obs gates below
#   make bench-kway — k-way SIC gate only: end-to-end joint-decode cost
#                     at k=2/3/4 vs BENCH_kway.json
#   make bench-campaign — campaign gate only: 2-shard-merge vs unsharded
#                     byte-identity, calibrated cost + shard overhead
#                     (best of 3, interleaved) vs BENCH_campaign.json
#   make bench-kern — DSP kernel-layer benchmarks: the kern package's
#                     kernel microbenchmarks plus the impair per-model
#                     and FullChain rows they accelerate
#   make bench-kern-v3 — bench-kern rebuilt with GOAMD64=v3 (AVX/FMA
#                     baseline), for comparing instruction-set levels;
#                     record the level next to any number you commit
#   make bench-serve — streaming-serve gate only: rechunking
#                     frame-digest identity, overload-shedding check,
#                     calibrated serve cost + allocation rate vs
#                     BENCH_serve.json
#   make bench-obs  — observability gate only: observation-identity
#                     frame digests (off/on), exact
#                     metrics-vs-Report reconciliation, disabled- and
#                     observed-path 0 allocs/op pins, calibrated cost +
#                     observed/disabled overhead vs BENCH_obs.json
#   make ci         — what a pipeline should run: vet + test-race +
#                     test-race-correlate
#
# The GitHub Actions pipeline (.github/workflows/ci.yml) runs `make ci`
# and `make test-short` on two Go versions, the purego suite and lint as
# separate jobs, and `make bench-check` as a non-blocking perf canary.
# The experiment suites fan Monte-Carlo trials out across all cores via
# internal/runner; per-trial seed derivation keeps every figure
# bit-identical at any worker count, so parallelism is purely a
# wall-clock lever.

GO ?= go

# Packages touched by the correlation engine; test-race-correlate runs
# them twice under the race detector so the reused scratch buffers
# (Synchronizer/Receiver state, the per-plan-size pools, prepared
# fresh-reception spectra) are exercised across repeated steady-state
# calls, each at GOMAXPROCS 1 and 2 (-cpu 1,2) so the receiver's
# store-match leg runs both time-sliced with and in parallel to the
# caller's goroutine.
CORRELATE_PKGS = ./internal/dsp/... ./internal/phy/... ./internal/core/...

.PHONY: all build vet lint test test-short test-purego test-race test-race-correlate bench bench-correlate bench-decode bench-impair bench-check bench-kway bench-campaign bench-kern bench-kern-v3 bench-serve bench-obs ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...

test: build
	$(GO) test ./...

test-short: build
	$(GO) test -short ./...

# Packages whose amd64 assembly (internal/dsp/kern, internal/dsp/fft)
# has a purego fallback; test-purego runs them on the fallbacks.
PUREGO_PKGS = ./internal/dsp/... ./internal/phy/... ./internal/core/...

test-purego:
	$(GO) test -tags purego $(PUREGO_PKGS)

test-race: build
	$(GO) test -short -race -count=2 ./...

test-race-correlate: build
	$(GO) test -short -race -count=2 -cpu 1,2 $(CORRELATE_PKGS)

bench: build
	$(GO) test -bench=. -benchmem -run='^$$' .

bench-correlate: build
	$(GO) test -bench='BenchmarkCorrelateProfile|BenchmarkCrossover|BenchmarkFFT' -benchmem -run='^$$' ./internal/dsp/fft
	$(GO) test -bench='BenchmarkLocatePacket' -benchmem -run='^$$' ./internal/core

bench-decode: build
	$(GO) test -bench='BenchmarkBuildImage|BenchmarkTrackAndSubtract|BenchmarkSubtract|BenchmarkDecodeRange|BenchmarkShiftDrift' -benchmem -run='^$$' ./internal/phy

bench-impair: build
	$(GO) test -bench='BenchmarkFading|BenchmarkMultipath|BenchmarkDrift|BenchmarkInterferer|BenchmarkADC|BenchmarkFullChain' -benchmem -run='^$$' ./internal/impair
	$(GO) test -bench='BenchmarkMix' -benchmem -run='^$$' ./internal/channel

bench-check: build
	$(GO) run ./cmd/zigzag-bench -check

bench-kway: build
	$(GO) run ./cmd/zigzag-bench -check -kway-only

bench-campaign: build
	$(GO) run ./cmd/zigzag-bench -check -campaign-only

bench-serve: build
	$(GO) run ./cmd/zigzag-bench -check -serve-only

bench-obs: build
	$(GO) run ./cmd/zigzag-bench -check -obs-only

bench-kern: build
	$(GO) test -bench=. -benchmem -run='^$$' ./internal/dsp/kern
	$(GO) test -bench='BenchmarkFading|BenchmarkMultipath|BenchmarkDrift|BenchmarkInterferer|BenchmarkADC|BenchmarkFullChain' -benchmem -run='^$$' ./internal/impair

bench-kern-v3:
	GOAMD64=v3 $(GO) build ./...
	GOAMD64=v3 $(GO) test -bench=. -benchmem -run='^$$' ./internal/dsp/kern
	GOAMD64=v3 $(GO) test -bench='BenchmarkFading|BenchmarkMultipath|BenchmarkDrift|BenchmarkInterferer|BenchmarkADC|BenchmarkFullChain' -benchmem -run='^$$' ./internal/impair

# test-race covers every package; test-race-correlate adds the -cpu 1,2
# sweep that runs the receiver's store-match leg both time-sliced with
# and in parallel to the caller's goroutine.
ci: vet test-race test-race-correlate

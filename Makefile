# Build/test entry points for CI and local development.
#
#   make build      — compile everything
#   make vet        — go vet
#   make lint       — gofmt -l (fails on unformatted files) + go vet
#   make test       — full-fidelity suite (slow; shrinks with core count)
#   make test-short — reduced-scale suite, well under 30 s
#   make test-race  — race-enabled short suite
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
#   make bench-decode — naive-vs-polyphase decode hot-path benchmarks
#   make bench-impair — impairment-engine benchmarks: per-model costs
#                      plus static-vs-impaired Air.MixInto
#   make bench-check — session-engine benchmark-regression gate:
#                      trimmed sweeps, pooled vs unpooled identity +
#                      calibrated-unit diff against BENCH_session.json
#                      (now including the harsh-channel suite), plus the
#                      k-way gate below
#   make bench-kway — k-way SIC gate only: end-to-end joint-decode cost
#                     at k=2/3/4 vs BENCH_kway.json + k=2
#                     generalized-vs-pairwise bit-identity
#   make bench-campaign — campaign gate only: 2-shard-merge vs unsharded
#                     byte-identity, streaming-vs-legacy-metrics
#                     bit-identity, calibrated cost + shard overhead vs
#                     BENCH_campaign.json
#   make bench-kern — DSP kernel-layer benchmarks: the kern package's
#                     kernel microbenchmarks plus the impair per-model
#                     and FullChain rows they accelerate
#   make bench-kern-v3 — bench-kern rebuilt with GOAMD64=v3 (AVX/FMA
#                     baseline), for comparing instruction-set levels;
#                     record the level next to any number you commit
#   make bench-serve — streaming-serve gate only: streaming-vs-oneshot
#                     frame-digest identity, overload-shedding check,
#                     calibrated serve cost + allocation rate vs
#                     BENCH_serve.json
#   make bench-obs  — observability gate only: observation-identity
#                     frame digests (off/on/hatched), exact
#                     metrics-vs-Report reconciliation, disabled- and
#                     observed-path 0 allocs/op pins, calibrated cost +
#                     observed/disabled overhead vs BENCH_obs.json
#   make ci         — what a pipeline should run: vet + race suites
#
# The GitHub Actions pipeline (.github/workflows/ci.yml) runs `make ci`
# and `make test-short` on two Go versions, the race suites, the purego
# suite and lint as separate jobs, and `make bench-check` as a
# non-blocking perf canary.
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

# Packages touched by the polyphase decode engine; test-race-decode runs
# them twice under the race detector so the per-modeler/per-decoder
# scratch (wave/img/chip buffers, phase-FIR coefficients, Air work
# buffers) is exercised across repeated steady-state calls on both
# interpolation paths.
DECODE_PKGS = ./internal/dsp/... ./internal/channel/... ./internal/phy/... ./internal/core/...

# Packages touched by the impairment engine; test-race-impair runs them
# twice under the race detector on both the impaired and the globally
# disabled (static-channel) path, so per-worker chains, model scratch
# and the session-pool chain lifecycle are exercised across repeated
# steady-state calls.
IMPAIR_PKGS = ./internal/impair/... ./internal/channel/... ./internal/testbed/...

# Packages touched by the generalized k-way SIC framework;
# test-race-kway runs them twice under the race detector on both SIC
# policies (generalized and the ZIGZAG_PAIRWISE_SIC=1 escape hatch), so
# the per-decoder k-way scratch, the receiver's store matcher, and the
# k-way experiment sweeps are exercised across repeated steady-state
# calls on each path.
KWAY_PKGS = ./internal/core/... ./internal/session/... ./internal/experiments/...

# Packages touched by the streaming-metrics campaign stack;
# test-race-campaign runs them twice under the race detector on both
# metrics paths (streaming reducers and the ZIGZAG_LEGACY_METRICS=1
# escape hatch), so the block-based Reduce scheduler, the mergeable
# accumulators, checkpoint/resume, and the sharded sweeps are exercised
# across repeated steady-state calls on each path.
CAMPAIGN_PKGS = ./internal/metrics/... ./internal/runner/... ./internal/session/... ./internal/campaign/... ./internal/experiments/...

# Packages touched by the streaming ingest surface and the serve
# engine; test-race-serve runs them twice under the race detector on
# both ingest paths (the Ingest/Poll front end and the
# ZIGZAG_ONESHOT_INGEST=1 one-shot wrapper hatch), so the framer state
# machine, the bounded pending queue's buffer recycling, and the
# engine's policy/latency accounting are exercised across repeated
# steady-state calls on each path.
SERVE_PKGS = ./internal/serve/... ./internal/core/... ./internal/phy/... ./internal/hatch/...

# Packages touched by the structured observability layer;
# test-race-obs runs them twice under the race detector with
# observation on and with the ZIGZAG_NO_OBS=1 global-disable hatch, so
# the event ring's mutex, the registry's atomic counters/gauges and
# mutexed histograms, the exporter's snapshot rotation, and the
# engine/receiver/framer attachment points are exercised across
# repeated steady-state calls on both paths.
OBS_PKGS = ./internal/obs/... ./internal/core/... ./internal/phy/... ./internal/serve/... ./internal/hatch/...

# Packages touched by the DSP kernel layer; test-race-kern runs them
# twice under the race detector on both kernel paths (the packed/
# recurrence kernels and the ZIGZAG_NAIVE_KERNELS=1 scalar-reference
# hatch), so the kernel dispatch flag, the per-model oscillator banks
# and the batched emission rendering are exercised across repeated
# steady-state calls on each path.
KERN_PKGS = ./internal/dsp/... ./internal/impair/... ./internal/channel/... ./internal/phy/... ./internal/core/...

.PHONY: all build vet lint test test-short test-purego test-race test-race-correlate test-race-decode test-race-impair test-race-kway test-race-campaign test-race-kern test-race-serve test-race-obs bench bench-correlate bench-decode bench-impair bench-check bench-kway bench-campaign bench-kern bench-kern-v3 bench-serve bench-obs ci

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
	$(GO) test -short -race ./...

test-race-correlate: build
	$(GO) test -short -race -count=2 -cpu 1,2 $(CORRELATE_PKGS)

test-race-decode: build
	$(GO) test -short -race -count=2 $(DECODE_PKGS)
	ZIGZAG_NAIVE_INTERP=1 $(GO) test -short -race -count=2 $(DECODE_PKGS)

test-race-impair: build
	$(GO) test -short -race -count=2 $(IMPAIR_PKGS)
	ZIGZAG_NO_IMPAIR=1 $(GO) test -short -race -count=2 $(IMPAIR_PKGS)

test-race-kway: build
	$(GO) test -short -race -count=2 $(KWAY_PKGS)
	ZIGZAG_PAIRWISE_SIC=1 $(GO) test -short -race -count=2 $(KWAY_PKGS)

test-race-campaign: build
	$(GO) test -short -race -count=2 $(CAMPAIGN_PKGS)
	ZIGZAG_LEGACY_METRICS=1 $(GO) test -short -race -count=2 $(CAMPAIGN_PKGS)

test-race-kern: build
	$(GO) test -short -race -count=2 $(KERN_PKGS)
	ZIGZAG_NAIVE_KERNELS=1 $(GO) test -short -race -count=2 $(KERN_PKGS)

test-race-serve: build
	$(GO) test -short -race -count=2 $(SERVE_PKGS)
	ZIGZAG_ONESHOT_INGEST=1 $(GO) test -short -race -count=2 $(SERVE_PKGS)

test-race-obs: build
	$(GO) test -short -race -count=2 $(OBS_PKGS)
	ZIGZAG_NO_OBS=1 $(GO) test -short -race -count=2 $(OBS_PKGS)

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

# test-race-correlate is not a ci prerequisite: test-race-decode's
# default-path run covers the same packages (plus channel), so listing
# both would race-test dsp/phy/core twice; the correlate suite's extra
# -cpu 1,2 sweep runs in the CI race job instead.
# test-race-impair IS listed: its no-impair leg and the impair/testbed
# packages are not covered by the decode matrix. test-race-kway is
# likewise listed for its pairwise-hatch leg and the session/experiments
# coverage of the generalized scheduler. test-race-campaign adds the
# metrics/runner/campaign packages and the legacy-metrics-hatch leg.
# test-race-kern adds the naive-kernels-hatch leg across every package
# the kernel layer dispatches in. test-race-serve adds the serve/hatch
# packages and the oneshot-ingest-hatch leg over the streaming surface.
# test-race-obs adds the obs package and the no-obs-hatch leg over
# every instrumented attachment point.
ci: vet test-race test-race-decode test-race-impair test-race-kway test-race-campaign test-race-kern test-race-serve test-race-obs

GO ?= go
# bash + pipefail so a failing `go test` is not masked by a pipe
# consumer that exits 0 (bench-guard's benchguard, tee in CI).
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -c
# Per-target budget for the fuzz-smoke pass (the CI gate uses the
# default; raise it locally for a real fuzzing session).
FUZZTIME ?= 10s

.PHONY: build test bench vet all fmt-check race fuzz-smoke bench-smoke \
	crossarch test-noasm test-kernels bench-guard live-path pipeline churn \
	gate obs api-check build-examples ci bench-pair

# `make bench-pair BASE=<rev> [REPEAT=5]` measures a change the way a
# performance claim has to be made (docs/PERF.md, bench/README.md): the
# repository's benchmark, `go run ./bench`, REPEAT whole sets on BASE
# checked out into a temporary git worktree, the same on the working
# tree, then `go run ./bench -compare` of the two against
# BENCHMARK.json's bounds. It is not part of `make ci`: the driver gates
# a PR on BENCHMARK.json itself.
REPEAT ?= 5

# Scale of the self-healing churn harness (docs/RING.md). CI runs a
# reduced ring; raise locally for the full 50-node run.
CHURN_NODES ?= 24
CHURN_KILLS ?= 2

# Allowed throughput regression (percent) for the bench-guard gate.
# Raise it when benchmarking on hardware much slower than the machine
# that produced the committed baseline.
BENCH_GUARD_PCT ?= 25
# The live single-stream arms run a loopback ring on shared CI cores
# and show far more run-to-run spread than the coding kernels, so
# their floor is looser.
LIVE_GUARD_PCT ?= 45

all: vet build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The benchmark set behind BENCH_PR1.json / BENCH_PR2.json / docs/PERF.md.
bench:
	$(GO) test -run '^$$' -bench 'Table2|IOLibRead|Fig7' -benchmem -benchtime 1s .

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

race:
	$(GO) test -race ./...

# One invocation per target: `go test -fuzz` refuses a pattern that
# matches more than one fuzz test in a package.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzOnlineDecode$$' -fuzztime $(FUZZTIME) ./internal/erasure
	$(GO) test -run '^$$' -fuzz '^FuzzScheduleRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/erasure
	$(GO) test -run '^$$' -fuzz '^FuzzPoolOperations$$' -fuzztime $(FUZZTIME) ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzWireFrame$$' -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzChunkSum$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzRangeRead$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzParseRange$$' -fuzztime $(FUZZTIME) ./gateway

# The live data path under the race detector: the multi-node
# integration harness (concurrent clients + mid-transfer node kill +
# repair), the fault-injection proxy tests — whole-chunk degraded reads
# and partial-chunk ranged reads against a dead, empty-handed, lying or
# stalled holder — and the wire protocol-compatibility suite — native
# and on the noasm portable kernels (docs/LIVE.md).
live-path:
	$(GO) test -race -run 'Live|Integration' ./...
	$(GO) test -tags noasm -race -run 'Live|Integration' ./...

# The streaming pipeline under the race detector and fault injection:
# windowed out-of-order staging, mixed-version fallback, the hedged
# read racing a source that stalls or dies mid-stream, the windowed
# store completing through a slow sink, the per-source progress
# contract (replace the silent, spare the moving), and the store
# pipeline at depth 1, 2 and 4 recycling chunk buffers under slow
# sinks, a cancel and a failed upload — docs/LIVE.md "Streaming
# pipeline".
pipeline:
	$(GO) test -race -run 'StoreWindow|PreWindowRing|StalledSource|DeadSource|SlowSink|ProgressHedge|StorePipeline' \
		./internal/node ./internal/core

# Self-healing ring under the race detector: SWIM failure detection,
# death gossip, and the autonomous repair daemon absorb a kill
# schedule with zero manual Repair/PruneRing calls (docs/RING.md).
churn:
	PS_CHURN_NODES=$(CHURN_NODES) PS_CHURN_KILLS=$(CHURN_KILLS) \
		$(GO) test -race -run 'ChurnSelfHealing' -v ./internal/integration

# The HTTP gateway under the race detector: psgate builds, and the
# gateway suite (Range matrix, conditional GETs, streaming PUT, herd
# singleflight, hot promotion) plus the File lifecycle and shared-cache
# tests run race-enabled against live loopback rings (docs/GATEWAY.md).
gate:
	$(GO) build ./cmd/psgate
	$(GO) test -race ./gateway
	$(GO) test -race -run 'UseAfterClose|Singleflight|CacheShared|CacheEviction|Promote' .

# Observability surface under the race detector: the telemetry package
# (bucket math, quantile accuracy vs a sorted-sample reference, merge
# associativity, alloc-free recording, concurrent hammer), then the
# admin/metrics endpoint suites — including the live loopback ring that
# stores a workload, kills a node, and requires the /-/metrics scrape to
# stay Prometheus-parseable while death and repair counters move
# (docs/OBSERVABILITY.md).
obs:
	$(GO) test -race -count=1 ./internal/telemetry
	$(GO) test -race -count=1 -run 'Metrics|AdminEndpoints' . ./gateway

# Every benchmark in every package, one iteration each: proves the perf
# surface still compiles and runs without paying for a real measurement.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Regression guard over the Table 2 coding arms: re-measure at a real
# benchtime and compare MB/s against the committed baseline JSON,
# failing on a >$(BENCH_GUARD_PCT)% drop (cmd/benchguard).
bench-guard:
	$(GO) test -run '^$$' -bench 'Table2Online' -benchtime 1s . \
		| $(GO) run ./cmd/benchguard -baseline BENCH_PR8.json -match 'Table2' -tol $(BENCH_GUARD_PCT)
	$(GO) test -run '^$$' -bench 'LiveStore(File|Stream)$$|LiveFetch(File|Stream)$$' -benchtime 1s ./internal/node \
		| $(GO) run ./cmd/benchguard -baseline BENCH_PR7.json -match 'Live' -tol $(LIVE_GUARD_PCT)
	$(GO) test -run '^$$' -bench 'Gateway' -benchtime 1s ./gateway \
		| $(GO) run ./cmd/benchguard -baseline BENCH_PR9.json -match 'Gateway' -tol $(LIVE_GUARD_PCT)

# Results stay in bench/out/pair/{base,change}/result.json. -compare
# exits non-zero when any row is worse or unresolved.
bench-pair:
	@test -n "$(BASE)" || { echo "usage: make bench-pair BASE=<rev> [REPEAT=5]"; exit 2; }
	@set -e; tmp="$$(mktemp -d)"; out="$(CURDIR)/bench/out/pair"; \
	trap 'git worktree remove --force "$$tmp/base" >/dev/null 2>&1; rm -rf "$$tmp"' EXIT; \
	git worktree add --detach "$$tmp/base" "$(BASE)" >/dev/null; \
	(cd "$$tmp/base" && $(GO) run ./bench -repeat $(REPEAT) -out "$$out/base"); \
	$(GO) run ./bench -repeat $(REPEAT) -out "$$out/change"; \
	$(GO) run ./bench -compare "$$out/base/result.json" "$$out/change/result.json"

# Cross-architecture compile checks: the NEON assembly path must keep
# assembling and vetting (arm64), and the portable fallback must keep
# passing the full suite (-tags noasm).
crossarch:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=arm64 $(GO) build -tags noasm ./...

test-noasm:
	$(GO) test -tags noasm ./...

# Kernel dispatch matrix: the erasure suite under every forced kernel
# tier (PS_KERNELS, see internal/erasure/kernels.go) plus the portable
# noasm build. Tiers absent on the host CPU (e.g. gfni on an arm64 or
# pre-Ice-Lake runner) fall back with a diagnostic rather than failing,
# and the per-tier cross-check tests skip cleanly — so this is safe on
# any hardware and exhaustive on hardware that has the features.
test-kernels:
	PS_KERNELS=scalar   $(GO) test -count=1 ./internal/erasure
	PS_KERNELS=portable $(GO) test -count=1 ./internal/erasure
	PS_KERNELS=avx2     $(GO) test -count=1 ./internal/erasure
	PS_KERNELS=avx512   $(GO) test -count=1 ./internal/erasure
	PS_KERNELS=gfni     $(GO) test -count=1 ./internal/erasure
	$(GO) test -tags noasm -count=1 ./internal/erasure

# Public-API compatibility gate: the exported surface of the
# peerstripe package must match the checked-in baseline. On an
# intentional change, regenerate with
# `go run ./cmd/apicheck -write` and note the change in CHANGES.md.
api-check:
	$(GO) run ./cmd/apicheck -dir . -baseline api/peerstripe.txt

# Every example program must keep compiling against the public API.
build-examples:
	$(GO) build ./examples/...
	$(GO) vet ./examples/...

# Mirrors the CI workflow (.github/workflows/ci.yml) locally, in the
# same order: lint, API gate, build (incl. examples), tests (native,
# noasm, forced kernel tiers), cross-arch, race, live-path, pipeline,
# churn, gate, obs, fuzz-smoke, bench-smoke, bench-guard.
ci: fmt-check vet api-check build build-examples test test-noasm test-kernels crossarch race live-path pipeline churn gate obs fuzz-smoke bench-smoke bench-guard

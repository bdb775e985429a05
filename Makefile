GO ?= go
# bash + pipefail so a failing `go test` is not masked by a pipe
# consumer that exits 0 (tee in CI).
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -c
# Per-target budget for the fuzz-smoke pass (the CI gate uses the
# default; raise it locally for a real fuzzing session).
FUZZTIME ?= 10s

.PHONY: build test bench vet all fmt-check race fuzz-smoke bench-smoke \
	crossarch test-noasm test-kernels live-path pipeline churn \
	gate obs api-check build-examples ci bench-pair

# `make bench-pair BASE=<rev> [REPEAT=5]` measures a change the way a
# performance claim has to be made (docs/PERF.md, bench/README.md): the
# repository's benchmark, `go run ./bench`, REPEAT whole sets on BASE
# checked out of a temporary `git clone --shared` (no worktree, so it
# runs where `git worktree` is not allowed), the same on the working
# tree, then `go run ./bench -compare` of the two against
# BENCHMARK.json's bounds. It is not part of `make ci`: a change is
# gated on BENCHMARK.json itself.
#
# Beware drift: the two sides run one after the other, and a shared
# two-core host drifts between them — `degraded_range` read 1.15 and
# then 1.66 ns/B of CPU on the same seeds within an hour. Judge a timed
# metric from runs of the two sides made close together (alternate
# single runs, docs/PERF.md), not from two sets an hour apart; and
# `-compare` rates each side's spread against its own median, which is
# not the gate's rule (both spreads against the base's median).
REPEAT ?= 5

# Scale of the self-healing churn harness (docs/RING.md). CI runs a
# reduced ring; raise locally for the full 50-node run.
CHURN_NODES ?= 24
CHURN_KILLS ?= 2

all: vet build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The paper-table micro-benchmarks of the root package (docs/PERF.md).
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
	$(GO) test -run '^$$' -fuzz '^FuzzStoreWindow$$' -fuzztime $(FUZZTIME) ./internal/node
	$(GO) test -run '^$$' -fuzz '^FuzzFetchGroup$$' -fuzztime $(FUZZTIME) ./internal/node
	$(GO) test -run '^$$' -fuzz '^FuzzBlockFrames$$' -fuzztime $(FUZZTIME) ./internal/node
	$(GO) test -run '^$$' -fuzz '^FuzzWireFrame$$' -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeUpdates$$' -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzChunkSum$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzRangeRead$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzUnmarshalCAT$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzParseRange$$' -fuzztime $(FUZZTIME) ./gateway

# The live data path under the race detector: the multi-node
# integration harness (concurrent clients + mid-transfer node kill +
# repair), the fault-injection proxy tests — whole-chunk degraded reads
# and partial-chunk ranged reads against a dead, empty-handed, lying or
# stalled holder — and the wire protocol golden (every op through Pool
# and Serve, and the handshake) — native and on the noasm portable
# kernels (docs/LIVE.md). Under the race detector a released receive
# frame is poisoned, so every byte-verifying test here is also a
# use-after-release check. Then, without it (its instrumentation
# allocates), the store and fetch allocation budgets per user byte.
live-path:
	$(GO) test -race -run 'Live|Integration' ./...
	$(GO) test -tags noasm -race -run 'Live|Integration' ./...
	$(GO) test -count=1 -run 'AllocBudget$$' .
	$(GO) test -count=1 -run 'TestOwnerGroupedCalls|TestGroupRoundTripAllocs' ./internal/node ./internal/wire

# The streaming pipeline under the race detector and fault injection:
# windowed out-of-order staging and its kill-the-stage errors, the hedged
# read racing a source that stalls or dies mid-stream, the windowed
# store completing through a slow sink, the per-source progress
# contract (replace the silent, spare the moving), and the store
# pipeline recycling chunk buffers under slow sinks, a cancel and a
# failed upload — docs/LIVE.md "Streaming pipeline".
pipeline:
	$(GO) test -race -run 'StoreWindow|StalledSource|DeadSource|SlowSink|ProgressHedge|StorePipeline' \
		./internal/node ./internal/core

# Self-healing ring under the race detector: SWIM failure detection,
# death gossip, and the autonomous repair daemon absorb a kill
# schedule with zero manual Repair/PruneRing calls (docs/RING.md).
churn:
	PS_CHURN_NODES=$(CHURN_NODES) PS_CHURN_KILLS=$(CHURN_KILLS) \
		$(GO) test -race -run 'ChurnSelfHealing' -v ./internal/integration

# The HTTP gateway under the race detector: psgate builds, and the
# gateway suite (Range matrix, conditional GETs, streaming PUT, herd
# singleflight) plus the File lifecycle and shared-cache tests run
# race-enabled against live loopback rings (docs/GATEWAY.md).
gate:
	$(GO) build ./cmd/psgate
	$(GO) test -race ./gateway
	$(GO) test -race -run 'UseAfterClose|Singleflight|CacheShared|CacheEviction' .

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

# Results stay in bench/out/pair/{base,change}/result.json. -compare
# exits non-zero when any row is worse or unresolved.
bench-pair:
	@test -n "$(BASE)" || { echo "usage: make bench-pair BASE=<rev> [REPEAT=5]"; exit 2; }
	@set -e; base="$$(git rev-parse --verify "$(BASE)^{commit}")"; \
	tmp="$$(mktemp -d)"; out="$(CURDIR)/bench/out/pair"; \
	trap 'rm -rf "$$tmp"' EXIT; \
	git clone --quiet --shared --no-checkout "$(CURDIR)" "$$tmp/base"; \
	git -C "$$tmp/base" checkout --quiet --detach "$$base"; \
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
# noasm build, each followed by the stored-format goldens of
# internal/core (TestCodeForGolden: every code the data path builds,
# whole-chunk encode), so the bytes stored are proven identical across
# tiers, not just per micro-kernel. Tiers absent on the host CPU (e.g.
# gfni on an arm64 or pre-Ice-Lake runner) fall back with a diagnostic
# rather than failing, and the per-tier cross-check tests skip cleanly
# — so this is safe on any hardware and exhaustive on hardware that
# has the features.
KERNEL_GOLDENS := -run '^TestCodeForGolden$$' ./internal/core
test-kernels:
	PS_KERNELS=scalar   $(GO) test -count=1 ./internal/erasure
	PS_KERNELS=scalar   $(GO) test -count=1 $(KERNEL_GOLDENS)
	PS_KERNELS=portable $(GO) test -count=1 ./internal/erasure
	PS_KERNELS=portable $(GO) test -count=1 $(KERNEL_GOLDENS)
	PS_KERNELS=avx2     $(GO) test -count=1 ./internal/erasure
	PS_KERNELS=avx2     $(GO) test -count=1 $(KERNEL_GOLDENS)
	PS_KERNELS=avx512   $(GO) test -count=1 ./internal/erasure
	PS_KERNELS=avx512   $(GO) test -count=1 $(KERNEL_GOLDENS)
	PS_KERNELS=gfni     $(GO) test -count=1 ./internal/erasure
	PS_KERNELS=gfni     $(GO) test -count=1 $(KERNEL_GOLDENS)
	$(GO) test -tags noasm -count=1 ./internal/erasure
	$(GO) test -tags noasm -count=1 $(KERNEL_GOLDENS)

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
# churn, gate, obs, fuzz-smoke, bench-smoke.
ci: fmt-check vet api-check build build-examples test test-noasm test-kernels crossarch race live-path pipeline churn gate obs fuzz-smoke bench-smoke

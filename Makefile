# ACORN reproduction — build/test/bench entry points.

GO ?= go
GOFMT ?= gofmt

# Scratch directory for bench output and pinned tools (gitignored).
BUILD_DIR ?= build

# staticcheck is pinned so `make all` means the same thing on every
# machine; the target below resolves a PATH install, a previously pinned
# build, or a fresh module fetch, in that order.
STATICCHECK_VERSION ?= 2024.1.1

.PHONY: all fmt build vet staticcheck test race bench-check bench bench-smoke alloc-bench-smoke assoc-bench-smoke shard-bench-smoke stream-bench-smoke trace-bench-smoke build-bench-smoke fleet-bench fleet-bench-smoke stream-chaos obs-smoke cover experiments clean

# The default check path race-checks everything: the control plane is
# deliberately concurrent (heartbeats, reconnect supervisors, chaos tests),
# so plain `make` must catch data races, not just failures.
all: fmt build vet staticcheck test race bench-check bench-smoke alloc-bench-smoke assoc-bench-smoke shard-bench-smoke stream-bench-smoke trace-bench-smoke build-bench-smoke fleet-bench-smoke stream-chaos obs-smoke

# Formatting gate: fails, listing the files, when gofmt would rewrite any
# of the module's Go sources.
fmt:
	@out=$$($(GOFMT) -l cmd internal examples *.go); \
	if [ -n "$$out" ]; then echo "gofmt -l lists unformatted files:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static analysis beyond vet. Resolution order: a staticcheck already on
# PATH, the pinned copy under $(BUILD_DIR)/bin, or a fresh pinned install
# (needs network for the module fetch). Offline with no binary available
# the target degrades to a loud skip rather than failing `make all`.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... ; \
	elif [ -x $(BUILD_DIR)/bin/staticcheck ]; then \
		$(BUILD_DIR)/bin/staticcheck ./... ; \
	elif GOBIN=$(abspath $(BUILD_DIR)/bin) $(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) 2>/dev/null; then \
		$(BUILD_DIR)/bin/staticcheck ./... ; \
	else \
		echo "staticcheck: no binary on PATH and module fetch unavailable; skipping"; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The end-to-end benchmark (bench/) is its own module, so `go test ./...`
# above never compiles it: vet and test it against this tree, so an
# exported name it uses cannot disappear unnoticed.
bench-check:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

# Full benchmark harness: regenerates every paper artifact once and
# measures each experiment, recording the trajectory in BENCH_phy.json and
# the allocator-scaling figures (reference vs incremental, with the 200-AP
# speedup ratio derived from the same run) in BENCH_alloc.json.
bench:
	@mkdir -p $(BUILD_DIR)
	$(GO) test -bench=. -benchmem -count=1 ./... | tee $(BUILD_DIR)/bench_output.txt
	$(GO) run ./cmd/benchjson < $(BUILD_DIR)/bench_output.txt > BENCH_phy.json
	$(GO) run ./cmd/benchjson -match '^BenchmarkAlloc' \
		-derive alloc_speedup_200ap=BenchmarkAllocReference200AP/BenchmarkAllocIncremental200AP \
		-derive alloc_speedup_50ap=BenchmarkAllocReference50AP/BenchmarkAllocIncremental50AP \
		< $(BUILD_DIR)/bench_output.txt > BENCH_alloc.json
	$(GO) run ./cmd/benchjson -match '^BenchmarkAssoc' \
		-derive assoc_speedup_50ap=BenchmarkAssocReferenceSweep50AP/BenchmarkAssocIncrementalSweep50AP \
		< $(BUILD_DIR)/bench_output.txt > BENCH_assoc.json
	$(GO) run ./cmd/benchjson -match 'BenchmarkStreamEvents|Goodput' \
		-derive stream_goodput_ratio=BenchmarkStreamGoodput/BenchmarkPeriodicGoodput:goodput_mbps \
		< $(BUILD_DIR)/bench_output.txt > BENCH_stream.json
	$(GO) run ./cmd/benchjson -match '^BenchmarkShard' \
		-derive shard_speedup_2000ap=BenchmarkShardSolve2000AP1W/BenchmarkShardSolve2000AP8W \
		< $(BUILD_DIR)/bench_output.txt > BENCH_shard.json
	$(GO) run ./cmd/benchjson -match 'BenchmarkStreamTraced' \
		-derive trace_overhead=BenchmarkStreamTracedOn/BenchmarkStreamTracedOff \
		< $(BUILD_DIR)/bench_output.txt > BENCH_trace.json
	$(GO) run ./cmd/benchjson -match '^BenchmarkGraphBuild' \
		-derive build_speedup_2000ap=BenchmarkGraphBuildFullScan2000AP/BenchmarkGraphBuildIndexed2000AP \
		< $(BUILD_DIR)/bench_output.txt > BENCH_build.json
	$(GO) run ./cmd/benchjson -match 'BenchmarkFleet|BenchmarkServerPush' \
		< $(BUILD_DIR)/bench_output.txt > BENCH_fleet.json

# One-iteration smoke pass over every benchmark: catches bit-rot in the
# benchmark code without paying for real measurements. -short elides the
# full-sweep reference benchmarks at scale (minutes per iteration).
bench-smoke:
	$(GO) test -short -bench=. -benchmem -benchtime=1x -count=1 ./... > /dev/null

# Smoke the allocator scale harness specifically: one iteration of every
# BenchmarkAlloc* the short mode allows, plus the 200-AP golden replay.
alloc-bench-smoke:
	$(GO) test -short -run 'TestAlloc200APGolden' -bench '^BenchmarkAlloc' \
		-benchtime=1x -count=1 ./internal/core/ > /dev/null

# Smoke the association scale harness: the churn-equivalence and golden
# suites plus one iteration of every BenchmarkAssoc* short mode allows
# (the full-sweep reference benchmark is elided; it takes minutes).
assoc-bench-smoke:
	$(GO) test -short -run 'TestAssoc(ChurnGolden|SweepWorkersDeterminism)' \
		-bench '^BenchmarkAssoc' -benchtime=1x -count=1 ./internal/core/ > /dev/null

# Smoke the component-sharding harness: the determinism/oracle/partition
# suites and the campus fallback regression, plus one iteration of the
# sharded 2000-AP benchmark pair (the unsharded baseline is elided by
# -short; real numbers come from `bench`).
shard-bench-smoke:
	$(GO) test -short -run 'TestContentionComponents|TestAllocSharded|TestAllocWideBandGolden' \
		-bench '^BenchmarkShard' -benchtime=1x -count=1 ./internal/core/ > /dev/null

# Smoke the streaming controller harness: one iteration of the event-rate
# and paired goodput benchmarks, piped through benchjson with the
# goodput-vs-periodic derivation so the whole BENCH_stream.json pipeline is
# exercised (output goes to a scratch file — real numbers come from `bench`).
stream-bench-smoke:
	@mkdir -p $(BUILD_DIR)
	$(GO) test -run '^$$' -bench 'BenchmarkStreamEvents|Goodput' \
		-benchtime=1x -count=1 ./internal/core/ ./internal/dynamic/ | tee $(BUILD_DIR)/stream_bench_smoke.txt > /dev/null
	$(GO) run ./cmd/benchjson -match 'BenchmarkStreamEvents|Goodput' \
		-derive stream_goodput_ratio=BenchmarkStreamGoodput/BenchmarkPeriodicGoodput:goodput_mbps \
		< $(BUILD_DIR)/stream_bench_smoke.txt > /dev/null
	rm -f $(BUILD_DIR)/stream_bench_smoke.txt

# Smoke the tracing-overhead harness: one iteration of the traced
# benchmark pair (identical event mix, tracing off vs every-event), piped
# through benchjson with the On/Off overhead derivation into a scratch file
# whose derived key is asserted, so the whole BENCH_trace.json pipeline is
# exercised. The committed BENCH_trace.json comes from `bench`, which
# regenerates it from full-length runs; one-iteration numbers never
# overwrite it.
trace-bench-smoke:
	@mkdir -p $(BUILD_DIR)
	$(GO) test -run '^$$' -bench 'BenchmarkStreamTraced' -benchmem \
		-benchtime=1x -count=1 ./internal/core/ | tee $(BUILD_DIR)/trace_bench_smoke.txt > /dev/null
	$(GO) run ./cmd/benchjson -match 'BenchmarkStreamTraced' \
		-derive trace_overhead=BenchmarkStreamTracedOn/BenchmarkStreamTracedOff \
		< $(BUILD_DIR)/trace_bench_smoke.txt > $(BUILD_DIR)/trace_bench_smoke.json
	@grep -q trace_overhead $(BUILD_DIR)/trace_bench_smoke.json || \
		{ echo "trace-bench-smoke: trace_overhead missing from benchjson output"; exit 1; }
	rm -f $(BUILD_DIR)/trace_bench_smoke.txt $(BUILD_DIR)/trace_bench_smoke.json

# Smoke the spatial-index graph-build harness: the equivalence and churn
# suites, plus one iteration of the indexed/full-scan benchmark pair piped
# through benchjson with the speedup derivation into a scratch file whose
# derived key is asserted, so the whole BENCH_build.json pipeline is
# exercised per build. The committed BENCH_build.json comes from `bench`,
# which regenerates it from full-length runs.
build-bench-smoke:
	@mkdir -p $(BUILD_DIR)
	$(GO) test -run 'TestSpatial|TestPartition|TestClientChurn' \
		-count=1 ./internal/core/ > /dev/null
	$(GO) test -run '^$$' -bench 'BenchmarkGraphBuild' \
		-benchtime=1x -count=1 ./internal/core/ | tee $(BUILD_DIR)/build_bench_smoke.txt > /dev/null
	$(GO) run ./cmd/benchjson -match '^BenchmarkGraphBuild' \
		-derive build_speedup_2000ap=BenchmarkGraphBuildFullScan2000AP/BenchmarkGraphBuildIndexed2000AP \
		< $(BUILD_DIR)/build_bench_smoke.txt > $(BUILD_DIR)/build_bench_smoke.json
	@grep -q build_speedup_2000ap $(BUILD_DIR)/build_bench_smoke.json || \
		{ echo "build-bench-smoke: build_speedup_2000ap missing from benchjson output"; exit 1; }
	rm -f $(BUILD_DIR)/build_bench_smoke.txt $(BUILD_DIR)/build_bench_smoke.json

# Regenerate BENCH_fleet.json from real fleet runs: the 10k-agent
# convergence headline (minutes on one core), the fixed-profile wire run's
# bytes on the wire, and the server push wave's allocations per batch
# (zero on the steady-state path).
fleet-bench:
	@mkdir -p $(BUILD_DIR)
	$(GO) test -run '^$$' -bench 'BenchmarkFleet|BenchmarkServerPush' -benchmem \
		-benchtime=1x -count=1 -timeout 60m ./internal/ctlnet/ ./internal/fleetsim/ \
		| tee $(BUILD_DIR)/fleet_bench.txt
	$(GO) run ./cmd/benchjson -match 'BenchmarkFleet|BenchmarkServerPush' \
		< $(BUILD_DIR)/fleet_bench.txt > BENCH_fleet.json
	rm -f $(BUILD_DIR)/fleet_bench.txt

# Smoke the fleet harness: the 200-agent convergence test, one -short
# iteration of the wire and push benchmarks, and the benchjson pipeline
# into a scratch file. Fails when either benchmark stops reporting its
# figure (the committed BENCH_fleet.json comes from `fleet-bench`, not
# from here).
fleet-bench-smoke:
	@mkdir -p $(BUILD_DIR)
	$(GO) test -run 'TestFleetConverges$$' -count=1 ./internal/fleetsim/ > /dev/null
	$(GO) test -short -run '^$$' -bench 'BenchmarkFleetWire|BenchmarkServerPush' -benchmem \
		-benchtime=1x -count=1 ./internal/ctlnet/ ./internal/fleetsim/ \
		| tee $(BUILD_DIR)/fleet_bench_smoke.txt > /dev/null
	$(GO) run ./cmd/benchjson -match 'BenchmarkFleet|BenchmarkServerPush' \
		< $(BUILD_DIR)/fleet_bench_smoke.txt > $(BUILD_DIR)/fleet_bench_smoke.json
	@grep -Eq '^BenchmarkFleetWireV2(-[0-9]+)?[[:space:]].*[[:space:]]bytes_on_wire' $(BUILD_DIR)/fleet_bench_smoke.txt || \
		{ echo "fleet-bench-smoke: BenchmarkFleetWireV2 reported no bytes_on_wire"; exit 1; }
	@grep -Eq '^BenchmarkServerPushV2(-[0-9]+)?[[:space:]].*[[:space:]]allocs_per_push_batch' $(BUILD_DIR)/fleet_bench_smoke.txt || \
		{ echo "fleet-bench-smoke: BenchmarkServerPushV2 reported no allocs_per_push_batch"; exit 1; }
	rm -f $(BUILD_DIR)/fleet_bench_smoke.txt $(BUILD_DIR)/fleet_bench_smoke.json

# Chaos suite, short mode, under the race detector: connection resets,
# latency/jitter, short writes and report storms against the streaming
# server, asserting convergence and the per-AP switch-rate bound, plus the
# scoped-pass isolation, unchanged-report and pass-serialization checks and
# the consumer's batching (latest-wins while a pass is busy, a failed pass
# ending the drain).
stream-chaos:
	$(GO) test -race -short -count=1 \
		-run 'TestStreamChaosStorm|TestChaosConvergence|TestReconnectReplayStaysQuarantined|TestScopedPassIsolation|TestUnchangedReportsDoNotMark|TestUnchangedResendCommitsPendingSwitch|TestReallocateSerializesWithStreamPasses|TestStreamPassBatchesWhileBusy|TestSessionReportsCoalesceWhileBusy|TestFailedStreamPassEndsDrain' \
		./internal/ctlnet/ > /dev/null

# Boots acornd with -obs-addr and asserts /metrics and /healthz serve the
# expected convergence metrics. OBS_SMOKE_PORT overrides the port.
obs-smoke:
	sh scripts/obs_smoke.sh

cover:
	$(GO) test -coverprofile=cover.out ./... && $(GO) tool cover -func=cover.out | tail -1

# Regenerate every table, figure, ablation and extension.
experiments:
	$(GO) run ./cmd/experiments all

clean:
	rm -f cover.out test_output.txt bench_output.txt
	rm -rf $(BUILD_DIR)

# Development targets. `make check` is the smoke gate: vet + build + the
# race-enabled tests of the packages the fabric solver rewrite, the
# fault-injection engine and the self-healing layer touch (under both the
# calendar-queue and reference-heap schedulers) + one iteration of the
# kernel, page-cache and solver micro-benchmarks (catches benchmark rot
# without paying for stable timings) + a 10s fuzz pass over each input
# parser and the scheduler differential + the seeded chaos storms (three
# pinned seeds per backend, zero invariant violations, byte-deterministic
# digests) + a diff of the checked-in figure capture against fresh output.

GO ?= go
FUZZTIME ?= 10s

.PHONY: check vet build test race reference-smoke bench-smoke bench-diff fuzz-smoke chaos-smoke parallel-smoke fidelity-smoke resilience-smoke whatif-smoke artifacts-check bench test-all

check: vet build race reference-smoke bench-smoke bench-diff fuzz-smoke chaos-smoke parallel-smoke fidelity-smoke resilience-smoke whatif-smoke artifacts-check

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/sim/... ./internal/experiments/... \
		./internal/faults/... ./internal/vast/... ./internal/repair/... \
		./internal/traffic/... ./internal/trace/... ./internal/fidelity/... \
		./internal/resilience/... ./internal/configsearch/... \
		./internal/surrogate/... ./internal/gpfs/... ./internal/lustre/... \
		./internal/unifyfs/... ./internal/nvmelocal/...
	$(GO) test -race -tags simreference ./internal/sim/

# The -tags simreference build swaps the DES kernel's calendar queue for the
# seed's binary-heap scheduler; the whole sim suite (goldens included) must
# pass identically under both.
reference-smoke:
	$(GO) test -tags simreference ./internal/sim/
	$(GO) test -tags simreference ./internal/experiments -run TestGoldenSaturationQuick -count=1

bench-smoke:
	$(GO) test ./internal/sim/ -run XXX -bench BenchmarkFabricSolver -benchtime=1x
	$(GO) test . -run XXX -bench 'BenchmarkKernel|BenchmarkCacheFlushClean' -benchtime=1x
	$(GO) test ./internal/traffic -run XXX -bench 'BenchmarkTrafficEngine|BenchmarkResilienceOverhead' -benchtime=1x
	$(GO) test ./internal/surrogate -run XXX -bench BenchmarkSurrogateScore -benchtime=1x

# Regression gate over the recorded traffic-path benchmarks: a short fresh
# run of the hot-path benches diffed against the checked-in BENCH_traffic.json.
# Any allocs/op increase fails outright (allocation counts are exact and
# machine-independent — the real teeth of the gate); ns/op gets a generous
# tolerance because CI runners and dev machines differ. Tighten with
# BENCHDIFF_TOLERANCE=0.10 when comparing runs on one machine.
BENCHDIFF_TOLERANCE ?= 0.5
bench-diff:
	( $(GO) test ./internal/traffic -run XXX -bench 'BenchmarkTrafficEngine|BenchmarkResilienceOverhead' -benchtime=100000x -benchmem ; \
	  $(GO) test ./internal/surrogate -run XXX -bench BenchmarkSurrogateScore -benchtime=100000x -benchmem ) \
	| $(GO) run ./cmd/benchjson -o /tmp/storagesim-bench-diff.json
	$(GO) run ./cmd/benchjson -diff -threshold $(BENCHDIFF_TOLERANCE) BENCH_traffic.json /tmp/storagesim-bench-diff.json

# Each parser gets $(FUZZTIME) of coverage-guided fuzzing, and the calendar
# queue is fuzzed differentially against the reference heap. Go allows one
# -fuzz target per invocation, so this is five short runs.
fuzz-smoke:
	$(GO) test ./internal/units -run XXX -fuzz FuzzParseSize -fuzztime $(FUZZTIME)
	$(GO) test ./internal/units -run XXX -fuzz FuzzParseDuration -fuzztime $(FUZZTIME)
	$(GO) test ./internal/faults -run XXX -fuzz FuzzSchedule -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sim -run XXX -fuzz FuzzWheelVsHeap -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sim -run XXX -fuzz FuzzDomainsVsSequential -fuzztime $(FUZZTIME)
	$(GO) test ./internal/traffic -run XXX -fuzz FuzzTenantSpec -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run XXX -fuzz FuzzParseTraceCSV -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run XXX -fuzz FuzzParseTraceJSONL -fuzztime $(FUZZTIME)
	$(GO) test ./internal/configsearch -run XXX -fuzz FuzzParseSpace -fuzztime $(FUZZTIME)

# Seeded chaos gate: three pinned storms per backend through the repair
# manager with the invariant suite attached. Reproduce one storm by hand
# with `iorbench -fs <fs> -chaos seed=N`.
chaos-smoke:
	$(GO) test ./internal/experiments -run 'TestChaos(Smoke|StormDeterministic)' -count=1

# Fidelity gate: the round-trip audit (record -> re-ingest -> replay ->
# error bands) plus the pinned-fixture golden under all three kernel builds
# (calendar queue, reference heap, forced-sequential groups), and the CLI
# auditing the checked-in trace end to end. Regenerate the fixture with
# `go run ./cmd/tracereplay -record ... -o internal/experiments/testdata/
# fidelity_trace.jsonl` and the golden with -update-golden.
fidelity-smoke:
	$(GO) test ./internal/experiments -run 'TestFidelity|TestGoldenFidelityQuick' -count=1
	$(GO) test -tags simreference ./internal/experiments -run TestGoldenFidelityQuick -count=1
	$(GO) test -tags simsequential ./internal/experiments -run TestGoldenFidelityQuick -count=1
	$(GO) run ./cmd/tracereplay -trace internal/experiments/testdata/fidelity_trace.jsonl \
		-machine Wombat -fs vast -nodes 2 -audit >/dev/null

# Resilience gate: the retry-storm metastability golden under all three
# kernel builds (calendar queue, reference heap, forced-sequential groups),
# the headline-property assertions that pin the metastable contrast, the
# sharded resilience lockstep (full policy stack byte-identical on 1/2/4
# executors and under the sequential oracle), and three seeded chaos
# storms with breakers armed — zero invariant violations: deadline
# cancellation and breaker shedding must never over-allocate bandwidth or
# strand a rebuild.
resilience-smoke:
	$(GO) test ./internal/experiments -run 'TestGoldenRetryStormQuick|TestRetryStormMetastability|TestResilienceChaos' -count=1
	$(GO) test -tags simreference ./internal/experiments -run TestGoldenRetryStormQuick -count=1
	$(GO) test -tags simsequential ./internal/experiments -run TestGoldenRetryStormQuick -count=1
	$(GO) test -tags simsequential ./internal/traffic -run TestShardedResilienceLockstep -count=1

# What-if explorer gate: the configsearch/surrogate unit suites, the
# pinned-fixture search and figure goldens (byte-identical frontier under
# all three kernel builds), the surrogate-vs-DES differential (rank
# correlation, error bands, exact true-frontier containment) plus the
# calibration self-check, and the CLI driving a budgeted search end to end.
whatif-smoke:
	$(GO) test ./internal/configsearch ./internal/surrogate
	$(GO) test ./internal/experiments -run 'TestWhatIf|TestGoldenWhatIf' -count=1
	$(GO) test -tags simreference ./internal/experiments -run TestGoldenWhatIf -count=1
	$(GO) test -tags simsequential ./internal/experiments -run TestGoldenWhatIf -count=1
	$(GO) run ./cmd/whatif -space internal/experiments/testdata/whatif_space.json \
		-budget 60 -print-frontier >/dev/null

# Domain-parallel gate: a two-rack chaos storm advanced on two executors
# under the race detector must produce the byte-identical digest of the
# one-executor run; the sharded traffic lockstep goldens run under both
# the parallel and the forced-sequential (-tags simsequential) builds, and
# so do the sharded observer streams (buffered per rack, merged after the
# run) and payload bytes, whose pinned digest also holds under -tags
# simreference.
parallel-smoke:
	$(GO) test -race ./internal/experiments -run 'TestSharded(ChaosSmoke|TrafficLockstep)' -count=1
	$(GO) test -race ./internal/traffic -run TestShardedObserversLockstep -count=1
	$(GO) test -tags simsequential ./internal/sim/ -run TestGroup -count=1
	$(GO) test -tags simsequential ./internal/experiments -run TestShardedTrafficLockstep -count=1
	$(GO) test -tags simsequential ./internal/traffic -run 'TestSharded(ObserversLockstep|SingleRackMatchesRun)' -count=1
	$(GO) test -tags simreference ./internal/traffic -run TestShardedObserversLockstep -count=1

# Engine + solver + figure benchmark sweep, recorded machine-readably in
# BENCH_kernel.json (with the pre-overhaul numbers carried along from
# BENCH_baseline.json). Kernel micro-benchmarks get stable 1s timings; the
# heavyweight end-to-end benches run a few fixed iterations.
bench:
	( $(GO) test . -run XXX -bench 'BenchmarkKernel|BenchmarkFairShareSolver|BenchmarkCacheLookup|BenchmarkCacheFlushClean' -benchtime=1s -benchmem ; \
	  $(GO) test ./internal/sim/ -run XXX -bench BenchmarkFabricSolver -benchtime=3x -benchmem ; \
	  $(GO) test . -run XXX -bench 'BenchmarkConsistency|BenchmarkFig2a|BenchmarkFig3$$' -benchtime=1x -benchmem ) \
	| $(GO) run ./cmd/benchjson -baseline BENCH_baseline.json -o BENCH_kernel.json \
	    -note "post-overhaul kernel numbers; baseline is the pre-overhaul binary-heap scheduler. Recorded with go1.24.0 linux/amd64 on a 1-core Intel Xeon @2.10GHz container, default GOMAXPROCS"
	( $(GO) test ./internal/traffic -run XXX -bench 'BenchmarkTrafficEngine|BenchmarkResilienceOverhead' -benchtime=2s -benchmem ; \
	  $(GO) test ./internal/surrogate -run XXX -bench BenchmarkSurrogateScore -benchtime=2s -benchmem ) \
	| $(GO) run ./cmd/benchjson -o BENCH_traffic.json \
	    -note "open-loop traffic engine: cost per generated request (arrival draw, admission, spawn, transfer, sketch); ResilienceOverhead arms the full policy stack (deadline, retries, hedge, breaker, brownout) on an uncongested rig — the delta vs TrafficEngine is the layer's pure bookkeeping cost (floor: two goroutine baton hand-offs per request, coordinator and attempt being separate processes). SurrogateScore is the what-if explorer's analytical predictor: cost of scoring one candidate configuration (the search layer assumes >=10k configs/sec). Recorded with go1.24.0 linux/amd64 on a 1-core Intel Xeon @2.10GHz container, default GOMAXPROCS"
	$(GO) test ./internal/traffic -run XXX -bench BenchmarkParallelTraffic -benchtime=2s -benchmem -cpu=1,2,4,8 \
	| $(GO) run ./cmd/benchjson -keep-cpu -o BENCH_parallel.json \
	    -note "domain-parallel scaling sweep: 8 racks, executors = GOMAXPROCS (-cpu suffix); results are bit-identical across the sweep, only wall clock moves. Recorded with go1.24.0 linux/amd64 on a 1-core Intel Xeon @2.10GHz container (no physical parallelism: the sweep checks determinism, not speedup, here)"

# Artifact gate: the checked-in capture of every figure and table must be
# what the code prints today. Regenerate it with
# `go run ./cmd/paperfigs -fig all > artifacts/paperfigs-all.txt`.
artifacts-check:
	$(GO) run ./cmd/paperfigs -fig all | diff -u artifacts/paperfigs-all.txt -

test-all: build test race

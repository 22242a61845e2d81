# ipusim — build/test/reproduce targets.

GO ?= go

.PHONY: all build test vet race serve serve-test serve-cluster-test bench bench-json bench-baseline bench-check bench-module check-schemes check-flash check-tenants check-closedloop experiments ablation sensitivity fuzz fuzz-parse fuzz-replay fuzz-itc fuzz-canonical fuzz-config golden clean

all: build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test: vet
	$(GO) test ./...

# The matrix harness is the only concurrent code path; -race over the
# internal packages covers it plus every shared-state regression.
race:
	$(GO) test -race ./internal/...

# Start the experiment daemon locally with the default settings.
serve:
	$(GO) run ./cmd/ipusimd

# The experiment-service acceptance gate: every server lifecycle test plus
# the 32-job soak (half cancelled mid-run, graceful drain, goroutine-leak
# and snapshot-cache-integrity checks), all under the race detector, and
# the daemon's own end-to-end boot/shutdown test.
serve-test:
	$(GO) test -race -count 1 ./internal/server ./cmd/ipusimd

# The cluster acceptance gate: the result-cache hit path (byte-identical,
# sim never re-runs), durable-store restart recovery, the consistent-hash
# ring units and its bounded-load walk, and the coordinator suite —
# bounded-load placement (two runs sharing an owner run one per worker,
# in-flight counts released on every exit), forwarded runs and cells and
# matrix, sensitivity and contention sweeps placed on in-process workers
# and compared bit-for-bit to a single daemon (live fleet, all workers
# down, one killed while the coordinator follows a forwarded run), the
# simulation bound (Workers in-process simulations at most, a plain
# daemon's sweep cells and a coordinator's fallback alike), the dispatch
# bound (one pool of slots for every job's sub-jobs, so workers that
# queue that many never answer 429), a worker's 400, failed sub-job or
# own job timeout failing the job without dropping the worker, the
# job's deadline forwarded with each sub-job, cancellation reaching the
# worker's sub-jobs, a panicking sweep cell failing only its job on a plain
# daemon and on a coordinator with its fleet down, a worker's cache hits
# reading as a cache hit on the coordinator, and the shared rejection
# tables run against a plain daemon and a coordinator — all under the
# race detector.
serve-cluster-test:
	$(GO) test -race -count 1 \
	  -run 'TestCacheHit|TestCanonicalKey|TestJobKey|TestSubJobKeysPinned|TestRestartRecovery|TestCoordinator|TestContentionCoordinator|TestSubmitValidation|TestV3FieldValidation|TestContentionValidation|TestRing|TestStore|TestSubJobPanicContained|TestForwardedCacheHit|TestCoordinatorBoundedLoad|TestCoordinatorReleasesInFlight|TestCoordinatorFailedSubJobKeepsWorker|TestRingBoundedLoad|TestSimulationBound' \
	  ./internal/server
	$(GO) test -race -count 1 -run TestDaemonCluster ./cmd/ipusimd

# Re-accept the golden metric snapshots after an intentional behaviour
# change (inspect the diff in the test failure first).
golden:
	$(GO) test ./internal/core -run Golden -update

# The scheme-matrix acceptance gate: every registered scheme through the
# invariant harness (checked replays, stress, structural sweeps, and the
# FuzzReplay seeds, one per IPU variant included), the cross-scheme
# differential runner, the golden metric snapshots (ts0 and wdev0 over
# every registered scheme, IPU variants included, plus the mlcgc-ts0
# snapshots that cover the MLC collector), and the shared device template
# every scheme borrows (clone and recycle fidelity across every scheme
# pair, builder purity, one template per geometry).
check-schemes:
	$(GO) test -count 1 ./internal/scheme
	$(GO) test -count 1 -run 'TestDifferential|TestRunDifferential|TestGolden|TestRegistry|TestSchemeNames|TestCloneMatchesFreshReplay|TestCloneIndependence|TestRecycledCloneMatchesFreshReplay|TestBuildersLeaveDeviceUnchanged|TestSnapshot|TestResetSnapshotCache' ./internal/core

# The flash-state acceptance gate: the flash array (8-byte subpages, the
# SLC write-time column, J kept only in SLC mode, the checker's all-slot
# column dropped by Clone and Restore, copy-on-write copies: every view in
# a copy's own run or its frozen source's, a cloned-from array's mutators
# panicking, Restore recycling runs, copies leaving their template's hash
# unchanged) and the invariant checker (stale-version test on restored
# devices), the FuzzReplay seeds and checked replays of every scheme, a
# cloned-from device refusing writes, the victim-sized GC frame collector,
# the goldens, the clone and recycled-restore differentials over every
# scheme, a warm pooled copy replaying without allocating, and every
# scheme's replays on serial and Workers 4 copies leaving the template
# unchanged under the race detector.
check-flash:
	$(GO) test -count 1 ./internal/flash ./internal/check
	$(GO) test -count 1 -run 'FuzzReplay|TestCheckedReplayAllSchemes|TestCheckedDeviceCopiesShareNoTimeColumn|TestClonedDeviceIsReadOnly|TestFrameCollector' ./internal/scheme
	$(GO) test -count 1 -run 'TestGolden|TestCloneMatchesFreshReplay|TestCloneIndependence|TestRecycledCloneMatchesFreshReplay|TestPooledCopyReplayZeroAllocs' ./internal/core
	$(GO) test -race -count 1 -run 'TestTemplateUnchangedByCopies' ./internal/core

# The multi-tenant/spec-API acceptance gate: the spec-vs-reference
# bit-identity differential across every scheme, multi-tenant replay
# determinism, cancelled-run per-tenant partials, the write-cache
# front-end (unit + integration), the tenant scheduler units, the
# multi-tenant golden snapshots, and the schedule cache (exact against the
# two-pass merge, keyed on every spec field, bounded, one instance per
# key under concurrent misses) — all under the race detector.
check-tenants:
	$(GO) test -race -count 1 ./internal/cache ./internal/workload
	$(GO) test -race -count 1 \
	  -run 'TestSpecPath|TestMultiTenant|TestWriteCache|TestClosedLoopSpec|TestGoldenMultiTenant|TestTenantScheduleCache' \
	  ./internal/core
	$(GO) test -race -count 1 -run 'TestV2JobKeys|TestV3|TestMultiTenantJob' ./internal/server

# The closed-loop fast-path acceptance gate: the slab write cache
# (eviction-order scripts, the fuzz differential against a map-backed
# reference, the zero-alloc steady state), the closed-loop behaviour
# tests, the progress/cancel contract (ticks, SimTime, cancel at an exact
# request), the zero-alloc request loop, the closed-loop entry's
# validation and cancellation, the concurrent
# contention study (concurrent == serial rows, standalone cell == study
# row, aggregated progress/cancel), the shared schedule cache (cold ==
# warm rows, Workers 2 == Workers 1 from a cold cache, a warm cell
# allocating no schedule), and the sharded "contention" job kind — all
# under the race detector.
check-closedloop:
	$(GO) test -race -count 1 \
	  -run 'TestEvictionOrder|TestSlab|TestWriteCacheSteadyState' ./internal/cache
	$(GO) test -race -count 1 -run 'TestClosedLoop|TestRunClosedLoop|TestContention|TestTenantScheduleCache' ./internal/core
	$(GO) test -race -count 1 -run 'TestContention|TestV4' ./internal/server

# Regenerate every table and figure of the paper (plus the P/E sweep).
experiments:
	$(GO) run ./cmd/experiments -scale 0.05 -pesweep

# The IPU design-choice ablation (ISR policy, hierarchy, intra-page
# update, adaptive combining).
ablation:
	$(GO) run ./cmd/experiments -scale 0.05 -traces ts0,wdev0 -schemes IPU -ablate

sensitivity:
	$(GO) run ./cmd/experiments -scale 0.05 -traces ts0 -sensitivity slcratio

bench:
	$(GO) test -bench=. -benchmem

# The repository benchmark under ipubench/ is its own Go module
# (replace ipusim => ../), so the root `go test ./...` never compiles it:
# vet and test it against the current tree, so an API change that breaks
# the benchmark fails here.
bench-module:
	cd ipubench && $(GO) vet . && $(GO) test -count 1 .

# The multi-cell figure rows (Figs. 5-14 and the matrix, all in the root
# package) take 40-135 ms an iteration, and their B/op depends on how many
# iterations a run gets: a one-iteration run carries ~6 KB of one-off
# allocations that more iterations amortise. So every bench target runs
# them at one fixed iteration count, in a pass of their own, and -skip
# keeps them out of the time-based pass. CI's bench-regression job uses
# the same pattern and count.
FIGBENCH = ^Benchmark(Fig([5-9]|1[0-4])_|Matrix$$)
FIGBENCHTIME = 4x

# Run the fixed-work benchmark suite across every layer and record it as
# JSON: raw output in bench/latest.txt, parsed record in BENCH_<n>.json at
# the first free index (BENCH_0.json is this repo's committed baseline).
bench-json:
	$(GO) test -run '^$$' -bench . -skip '$(FIGBENCH)' -benchmem -benchtime 200ms ./... | tee bench/latest.txt
	$(GO) test -run '^$$' -bench '$(FIGBENCH)' -benchmem -benchtime $(FIGBENCHTIME) . | tee -a bench/latest.txt
	n=0; while [ -e BENCH_$$n.json ]; do n=$$((n+1)); done; \
	  $(GO) run ./cmd/benchjson -o BENCH_$$n.json < bench/latest.txt && \
	  echo "wrote BENCH_$$n.json"

# Re-record the committed benchmark baseline after an intentional
# performance change. Run on a quiet machine; -count 6 gives benchstat a
# distribution per benchmark.
bench-baseline:
	$(GO) test -run '^$$' -bench . -skip '$(FIGBENCH)' -benchmem -benchtime 200ms -count 6 ./... | tee bench/baseline.txt
	$(GO) test -run '^$$' -bench '$(FIGBENCH)' -benchmem -benchtime $(FIGBENCHTIME) -count 6 . | tee -a bench/baseline.txt
	$(GO) run ./cmd/benchjson -o bench/baseline.json < bench/baseline.txt

# The CI regression gate, runnable locally: rerun the suite three times,
# as CI does, and compare against the committed baseline. benchjson
# merges the runs by median, so one outlier run cannot trip the gate.
# Allocation counts are gated tightly (deterministic); wall time loosely
# (hardware varies).
bench-check:
	$(GO) test -run '^$$' -bench . -skip '$(FIGBENCH)' -benchmem -benchtime 100ms -count 3 ./... | tee bench/current.txt
	$(GO) test -run '^$$' -bench '$(FIGBENCH)' -benchmem -benchtime $(FIGBENCHTIME) -count 3 . | tee -a bench/current.txt
	$(GO) run ./cmd/benchjson -o bench/current.json < bench/current.txt
	$(GO) run ./cmd/benchjson -compare -time-threshold 2.0 -space-threshold 0.15 \
	  bench/baseline.json bench/current.json

fuzz: fuzz-parse fuzz-replay fuzz-itc fuzz-canonical fuzz-config

fuzz-parse:
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzParseMSR -fuzztime 30s

fuzz-itc:
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzDecodeITC -fuzztime 30s

# Decodes arbitrary ipusimd job bodies: compile never panics, and a body
# it accepts keys exactly as under the oracle canonicalisation.
fuzz-canonical:
	$(GO) test ./internal/server -run '^$$' -fuzz FuzzCanonicalKey -fuzztime 30s

# Feeds arbitrary config files to core.LoadConfig: an error or a config
# that validates, never a panic.
fuzz-config:
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzLoadConfig -fuzztime 30s

# Replays fuzzer-generated write/read/trim programs through each scheme
# with the internal/check invariant harness attached.
fuzz-replay:
	$(GO) test ./internal/scheme -run '^$$' -fuzz FuzzReplay -fuzztime 30s

clean:
	$(GO) clean ./...

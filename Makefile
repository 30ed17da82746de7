GO ?= go

# Per-target budget for the native fuzzing smoke pass (see `fuzz` below).
FUZZTIME ?= 10s

# Coverage-ratchet floors (percent of statements) for the protocol core and
# its correctness oracle. Raise a floor when coverage improves; lowering one
# needs a written justification in the PR.
COV_FLOOR_COHERENCE := 85
COV_FLOOR_ORACLE := 85

.PHONY: all build test race vet lint check bench equiv sweep oracle fuzz cover smoke loadtest soak

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The sweep engine's determinism tests double as its race-detector
# certification: worker pools at parallel=8 must produce byte-identical
# aggregates with no data races. The serving layer (in-flight table, run
# queue, worker pool) joins the same certification; its package run
# includes the 50k-job cold daemon soak, and the run-queue stress tests
# repeat so a rare producer/consumer interleaving gets its chances.
race:
	$(GO) test -race ./internal/sweep/... ./internal/sim/... ./internal/service/... ./internal/load/...
	$(GO) test -race -count=10 -run 'TestQueueStress|TestQueueOrderUnderConcurrentPush' ./internal/service

vet:
	$(GO) vet ./...

# simcheck is the repository's own static-analysis suite (see README
# "Static analysis"): the code-layer rules — determinism, maporder,
# exhaustive, nogoroutine, lifetime, noalloc — over the whole module, the
# channel-dependency-graph verification of routing deadlock freedom at the
# paper's full 8x8 mesh size, and explicit all-rules passes over the
# fault-injection layer, the tracing subsystem and the serving layer
# (explicit directories get every rule; the server's intentional goroutines
# carry //simcheck:allow-file escapes).
lint:
	$(GO) run ./cmd/simcheck ./...
	$(GO) run ./cmd/simcheck -cdg -mesh 8
	$(GO) run ./cmd/simcheck ./internal/faults ./internal/trace
	$(GO) run ./cmd/simcheck ./internal/service ./internal/load ./cmd/dsmsimctl

# oracle runs the protocol-correctness oracles end to end: the exhaustive
# model checker over every scheme at the 2x2/2-block configuration, then a
# seeded-mutation run (dropped ack dedup) that MUST print a counterexample
# and exit nonzero — proving the checker still has teeth.
oracle:
	$(GO) run ./cmd/oracle -model -scheme all
	@echo "oracle: checking the seeded mutation is still caught..."
	@if $(GO) run ./cmd/oracle -model -scheme UI-UA -timeouts 1 -mutate count-acks > /dev/null 2>&1; then \
		echo "oracle: seeded count-acks mutation was NOT caught" >&2; exit 1; \
	else echo "oracle: seeded mutation caught (counterexample produced)"; fi

# fuzz gives each native fuzz target a FUZZTIME budget of coverage-guided
# exploration on top of the checked-in seed corpus (which plain `go test`
# already replays on every run).
fuzz:
	$(GO) test ./internal/oracle -run='^$$' -fuzz='^FuzzProtocol$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/oracle -run='^$$' -fuzz='^FuzzProtocolFaults$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/service -run='^$$' -fuzz='^FuzzJobRequest$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/service -run='^$$' -fuzz='^FuzzIndentJSON$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/sweep -run='^$$' -fuzz='^FuzzCanonicalJSON$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/blocktab -run='^$$' -fuzz='^FuzzTable$$' -fuzztime=$(FUZZTIME)

# cover enforces the coverage ratchet on the protocol core and the oracle.
cover:
	$(GO) test -coverprofile=cover_coherence.out ./internal/coherence/
	$(GO) test -coverprofile=cover_oracle.out ./internal/oracle/
	@for pkg in coherence:$(COV_FLOOR_COHERENCE) oracle:$(COV_FLOOR_ORACLE); do \
		name=$${pkg%%:*}; floor=$${pkg##*:}; \
		pct=$$($(GO) tool cover -func=cover_$$name.out | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
		ok=$$(awk -v p=$$pct -v f=$$floor 'BEGIN { print (p >= f) ? 1 : 0 }'); \
		echo "coverage internal/$$name: $$pct% (floor $$floor%)"; \
		if [ "$$ok" != 1 ]; then \
			echo "coverage ratchet: internal/$$name fell below $$floor%" >&2; exit 1; \
		fi; \
	done

# equiv replays the event-engine gates: the calendar-queue-vs-reference
# equivalence harness (200 randomized schedule/cancel/reschedule scripts,
# in FIFO and in chaos ordering), the queue edge-case suite, the unicast
# route-vs-router-walk property test (every pair, every base, on meshes),
# the byte-identical grouping plan golden (every scheme's worms for seeded
# sharer sets on 4x4 to 32x32 meshes, planned fresh and by one reused
# planner), the byte-identical golden
# experiment tables (the seed suite and
# the hot-spot, per-home, application and offered-load figures),
# and the functional-install-vs-simulated-reads property test (sharers
# installed by Machine.InstallSharer must leave the machine, and the write
# that follows, exactly as simulated read misses do), and the allocation
# ratchets (a pooled unicast allocates nothing; a traffic run's and an
# application replay's allocations and bytes do not grow with their length; a
# warm Barnes-Hut tree traversal allocates nothing; an
# invalidation transaction allocates at most a small constant at any k,
# scheme and d; building a network or a machine costs the same allocations
# at every mesh size; once grown, the block tables' fill/invalidate and
# op add/remove churn allocates nothing), the block table against a map
# oracle and the order-independence of what is built from its cells
# (Directory.ForEach), and the pinned SHA-256 digests of the generated
# application traces (every application at its published size and the
# benchmark's 64-processor sizes), and the pinned event counts of an
# invalidation sweep, an application replay and a traffic run (a change that
# moves the schedule moves them), and the serving layer's gates (the byte-level fingerprint
# canonicalizer against its reflection oracle and the pinned fingerprints, the
# reply indenter against json.Encoder, and the allocations of a cached
# one-point job), and the recording-neutrality test (one point of every kind,
# run with and without a recorder, must encode byte-identical Measures), and
# the knob ledger (every field of coherence.Params, coherence.Variant,
# network.Config and faults.Config is decoded by the oracle's fuzz decoder,
# timing-only, or on ROADMAP item 6's unchecked list), and the wedge ledger
# (the exact set of Barnes-Hut replays that wedge, plus one fuzz-found
# reproducer; ROADMAP item 2). Any engine change must pass this before
# it ships.
equiv:
	$(GO) test ./internal/sim -run 'TestEngineEquivalence|TestQueue|TestEngineAllocs' -count=1
	$(GO) test ./internal/routing -run TestUnicastPathIsRouterWalk -count=1
	$(GO) test ./internal/grouping -run TestPlansGolden -count=1
	$(GO) test ./internal/experiments -run 'TestGoldenTablesSeed|TestGoldenCellTables' -count=1
	$(GO) test ./internal/network -run TestWormAllocsPerUnicast -count=1
	$(GO) test ./internal/blocktab -run 'TestTableMatchesMap|TestZeroTableAllocatesNothing|TestChurnAllocatesNothing' -count=1
	$(GO) test ./internal/directory -run TestForEachAscending -count=1
	$(GO) test ./internal/coherence -run 'TestNewMachineAllocs|TestBlockTableChurnAllocs' -count=1
	$(GO) test ./internal/apps -run 'TestReplayAllocsIndependentOfLength|TestTraverseAllocatesNothing|TestGeneratedTracesPinned' -count=1
	$(GO) test ./internal/workload -run 'TestInstallSharerMatchesSimulatedReads|TestTrafficAllocsIndependentOfLength|TestInvalAllocsPerTxn|TestEventCountsPinned' -count=1
	$(GO) test ./internal/sweep -run 'TestCanonicalMatchesReflection|TestFingerprintPinned|TestRecordingIsNeutral' -count=1
	$(GO) test ./internal/service -run 'TestWriteJSONMatchesEncoder|TestCachedJobAllocs' -count=1
	$(GO) test ./internal/oracle -run 'TestKnobLedger|TestDecodedKnobsAreDecoded|TestVariantKnobsMirrorTheMachine|TestWedgeLedger' -count=1

check: vet lint build test race oracle fuzz equiv loadtest

# bench runs the layered benchmark BENCHMARK.json declares (bench/README.md).
bench:
	$(GO) run ./bench

sweep:
	$(GO) run ./cmd/dsmsimctl experiment -name all

# smoke drives `dsmsimctl serve` end to end: serve the E4, E19 and E9 tables
# byte-identical to an in-process run, repeat it from the cache, run a point
# job, then SIGTERM and assert a clean drain that leaves results/ filled,
# jobs/ empty and nothing else in the data directory; then in-process
# reruns over one -data directory (E12, E19 and E23) run nothing, and
# a daemon over it serves the same table. See scripts/serve_smoke.sh.
smoke:
	bash scripts/serve_smoke.sh

# loadtest is the `dsmsimctl load` harness smoke: verified closed- and
# open-loop runs against a live daemon, byte-identical client counters
# across identical schedules (the determinism contract), and the
# cache-sizing study grid. See scripts/load_smoke.sh and DESIGN.md
# section 17.
loadtest:
	bash scripts/load_smoke.sh

# soak is the crash-recovery gauntlet: SIGTERM the daemon mid-load, restart
# over the same data dir, require the journal to resume every unfinished
# job with zero duplicate engine runs and a result set byte-identical to an
# uninterrupted control run. See scripts/load_soak.sh.
soak:
	bash scripts/load_soak.sh

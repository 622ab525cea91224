GO ?= go

.PHONY: build test short race vet ci serve loc bench bench-compare bench-gate bench-gate-baseline memprofile batch-race admission-race fuzz-smoke crash-recovery remote-cache-e2e chaos-soak check

build:
	$(GO) build ./...

# Full suite, including the fault-injection tests (resilience_test.go).
test:
	$(GO) test ./...

# Fast subset: skips the slow database-build experiments.
short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Run the serving daemon (builds the SynthRAG database first, ~a minute).
serve:
	$(GO) run ./cmd/chatlsd -addr :8080

# Non-test Go lines, excluding the benchmark harness and its build output.
loc:
	@find . -name '*.go' ! -name '*_test.go' -not -path './perfbench/*' \
		-not -path './.bench_build/*' -not -path './.git/*' -print0 | xargs -0 cat | wc -l

# Micro-benchmarks: substrate and serving-path cache costs. Override BENCH
# to regenerate the paper tables instead (e.g. make bench BENCH=Table3).
BENCH ?= Elaborate|Compile|Customize|Embed
bench:
	$(GO) test -bench='$(BENCH)' -benchmem -run=^$$ .

# Headline perf record: runs the paper-scale benchmarks, the checkpointing
# pair, the batched-vs-serial embedding pair, and the Flat-vs-HNSW retrieval
# pair five times each and writes the averaged ns/op, B/op, allocs/op (plus
# custom units like recall and hops/op) to BENCH_6.json for comparison
# against earlier checked-in records. CompileUltraSwerv matches both the
# fresh and the checkpointed variant (their ratio is the checkpoint
# speedup); EmbedGlobalSerial/Batched is the batching speedup per flush;
# FlatSearch10k/HNSWSearch10k is the sublinear-retrieval speedup.
COMPARE ?= Table2DatabaseBuild|Table4Baseline|CompileUltraSwerv|CheckpointRestore|EmbedGlobalSerial|EmbedGlobalBatched
SEARCH_COMPARE ?= FlatSearch10k|HNSWSearch10k
bench-compare:
	{ $(GO) test -bench='$(COMPARE)' -benchmem -benchtime=1x -count=5 -run=^$$ . ; \
	  $(GO) test -bench='$(SEARCH_COMPARE)' -benchmem -count=5 -run=^$$ ./internal/vecindex ; } \
		| $(GO) run ./cmd/benchjson > BENCH_6.json
	@cat BENCH_6.json

# Allocation-regression gate: reruns the fast benchmarks (the paper-scale
# Table2/Table4 database builds are excluded to keep this CI-speed) and
# fails if any benchmark's allocs/op regresses more than 20% against the
# checked-in BENCH_GATE.json baseline. The baseline is recorded by
# bench-gate-baseline with the *same* benchmark subset and -count as the
# gate rerun — allocs/op is deterministic only under identical process
# conditions (which earlier benchmarks warmed the intern table and the
# scratch pools matters), so the gate must not compare against the
# full-set BENCH_6.json record. Regenerate the baseline whenever a change
# intentionally moves an allocation count.
GATE ?= CompileUltraSwerv|CheckpointRestore|EmbedGlobalSerial|EmbedGlobalBatched
GATE_BASELINE ?= BENCH_GATE.json
GATE_RUN = { $(GO) test -bench='$(GATE)' -benchmem -benchtime=1x -count=3 -run=^$$ . ; \
	  $(GO) test -bench='$(SEARCH_COMPARE)' -benchmem -count=3 -run=^$$ ./internal/vecindex ; }
bench-gate:
	$(GATE_RUN) | $(GO) run ./cmd/benchjson -baseline $(GATE_BASELINE) > /dev/null

bench-gate-baseline:
	$(GATE_RUN) | $(GO) run ./cmd/benchjson > $(GATE_BASELINE)
	@cat $(GATE_BASELINE)

# Heap-profile one benchmark (override PROFILE_BENCH/PROFILE_PKG), then
# inspect hot allocation sites with:
#   go tool pprof -top -alloc_objects mem.out
PROFILE_BENCH ?= CompileUltraSwerv$$
PROFILE_PKG ?= .
memprofile:
	$(GO) run ./cmd/benchjson -drive '$(PROFILE_BENCH)' -pkg $(PROFILE_PKG) -memprofile mem.out > /dev/null
	@echo "wrote mem.out; try: go tool pprof -top -alloc_objects mem.out"

# Continuous-batching correctness gate: the concurrent /v1/customize hammer
# must produce byte-identical responses to a batching-disabled server, and
# the batcher itself must be race-free, both under -race.
batch-race:
	$(GO) test ./internal/batch -race
	$(GO) test ./internal/server -race -run 'TestBatchedCustomizeByteIdentical|TestHealthzEchoesBatchConfig'

# Admission-path gate: the overload.Admission hammer (every request the
# adaptive limit admits must run, at most Workers at once) and the
# Close-vs-Admit drain race, under -race.
admission-race:
	$(GO) test ./internal/overload -race -count=1

ci: build vet race

# Short fuzzing pass over every untrusted-input parser. Each target gets
# FUZZTIME of coverage-guided input generation on top of its checked-in
# seed corpus (testdata/fuzz/); any crash is a failure. Raise FUZZTIME for
# a deeper soak, e.g. make fuzz-smoke FUZZTIME=5m.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test ./internal/verilog -run='^$$' -fuzz=FuzzParseVerilog -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/liberty -run='^$$' -fuzz=FuzzParseLiberty -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/synth -run='^$$' -fuzz=FuzzParseScript -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/graphdb -run='^$$' -fuzz=FuzzParseCypher -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/server -run='^$$' -fuzz=FuzzCustomizeRequest -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/qorlog -run='^$$' -fuzz=FuzzQoRLogRecover -fuzztime=$(FUZZTIME)

# Crash-recovery gate for the durable QoR log: fault-injected kills
# mid-append and mid-recompaction, torn/corrupt-tail truncation, the
# degrade-to-memory path, and warm-restart byte-equivalence across the
# serving stack.
crash-recovery:
	$(GO) test ./internal/qorlog -race -run \
		'TestKillDuringAppend|TestTornTailRecovery|TestCorruptRecordTruncates|TestBadHeaderResets|TestRecompactionCrashLeavesOldLogIntact|TestShortWriteRewindsAndRetries|TestStoreDegradesToMemoryOnFatalDiskError'
	$(GO) test ./internal/server -race -run 'TestWarmRestart|TestShutdownFlushesQoRLog|TestUnopenableQoRLog'
	$(GO) test . -race -run 'TestWarmRestartEquivalenceCorpus'

# Distributed-result-tier gate: an in-process chatlscached shared by two
# replica clients must dedup Pass@k synthesis fleet-wide (one tool run per
# unique key, byte-identical to a storeless single replica), and killing
# the cache server mid-run must degrade the client to local-only with one
# warning and equivalent results — all under -race.
remote-cache-e2e:
	$(GO) test ./internal/remotecache -race
	$(GO) test . -race -run 'TestTwoReplicasDedupAndMatchSingleReplica|TestReplicaDegradesWhenTierDiesMidRun'

# Chaos soak (~30s seeded profile): a real server + remote tier under
# burst load, tier kills/restarts, sticky stage outages, disk faults, and
# latency spikes, checking the overload-protection invariants (no
# deadlocks, allowed statuses only, byte-identical non-degraded replies,
# breakers re-close, limiter re-expands, no lost leases). The failure
# message echoes CHAOS_SEED; rerun with the printed seed to reproduce.
CHAOS_SEED ?= 20250808
chaos-soak:
	$(GO) run ./cmd/chaos -seed $(CHAOS_SEED)

# Everything CI runs plus the fuzz smoke pass, the crash-recovery gate,
# the distributed-result-tier gate, the continuous-batching gate, the
# admission gate, and the chaos soak.
check: build vet race batch-race admission-race fuzz-smoke crash-recovery remote-cache-e2e chaos-soak

GO ?= go

# Packages whose concurrent hot paths must stay race-clean. Since the
# virtual-clock migration this includes the full functional stack:
# fabric/core/reliability run their lossy scenarios as deterministic
# discrete-event simulations instead of racy-by-design timer goroutines.
# netem (queues/topologies) and collective (clocked ring/tree
# harnesses) joined with the multi-datacenter emulation; collective
# runs -short to skip its single-threaded Monte Carlo model sweeps,
# and its real-clock smokes skip themselves under the race detector
# (retransmit DMA vs staging reads is the documented motivating
# hazard — the lossy coverage runs on the virtual harness).
# nicsim (the lock-free QP, memory-key and CQ tables) and dpa (the
# CQ-draining workers) run their own concurrent tests. telemetry's
# Recorder takes its own lock for real-clock probes, and every netem
# queue calls its Sink.
RACE_PKGS = ./internal/bitmap/ ./internal/gf256/ ./internal/ec/ \
	./internal/clock/ ./internal/fabric/ ./internal/core/ ./internal/reliability/ \
	./internal/netem/ ./internal/simnet/ ./internal/session/ ./internal/chaos/ \
	./internal/nicsim/ ./internal/dpa/ ./internal/telemetry/

.PHONY: ci vet build test race bench bench-kernels bench-json bench-par loc api api-unused identity bench-sim smoke-flows smoke-adaptive smoke-perftest smoke-trace smoke-chaos smoke-bench smoke-golden smoke-examples

ci: vet build race test smoke-golden smoke-perftest smoke-trace smoke-chaos smoke-bench smoke-examples

# The second line compiles the non-amd64 side of internal/gf256's file
# split (the stubs behind the assembly kernels) and its only importer.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./internal/gf256/ ./internal/ec/

build:
	$(GO) build ./...

# experiments runs -short under race so the multi-lane sweep path
# (parallel virtual cells + GOMAXPROCS determinism) is race-checked
# without paying for the single-threaded model sweeps.
race:
	$(GO) test -race $(RACE_PKGS)
	$(GO) test -race -short ./internal/protosim/ ./internal/collective/ ./internal/experiments/

test:
	$(GO) test ./...

# Kernel micro-benchmarks: gf256 word kernels and the fused multi-row
# kernel (BenchmarkMulRows* and BenchmarkRowTablesSet* once per tier the
# host can run), EC encode and reconstruct, bitmap polling — the hot
# paths tracked by the bench trajectory.
bench-kernels:
	$(GO) test -run xxx -bench 'BenchmarkXORSlice|BenchmarkMulAddSlice|BenchmarkMulRows|BenchmarkRowTablesSet' ./internal/gf256/
	$(GO) test -run xxx -bench 'Encode|Reconstruct' ./internal/ec/
	$(GO) test -run xxx -bench 'BenchmarkBitmap|BenchmarkFirstZero|BenchmarkMarkPacket' ./internal/bitmap/

# Full benchmark sweep including figure regeneration.
bench: bench-kernels
	$(GO) test -run xxx -bench . -benchtime 0.2x .

# Machine-readable benchmark trajectory: event-engine + simulator
# micro-benchmarks, the DES-backed figure benchmarks, the WAN
# functional-stack wall-clock pair (virtual vs real clock), and the
# completion-time model's SR sampler and ring recurrence, emitted as
# op -> {ns/op, allocs/op, ...} JSON so per-PR performance is diffable.
bench-json:
	$(GO) test -run xxx -bench 'BenchmarkSimnet' -benchmem ./internal/simnet/ > bench-json.tmp
	$(GO) test -run xxx -bench 'BenchmarkMulRows32x8|BenchmarkMulRows32x5|BenchmarkRowTablesSet32x8' -benchmem ./internal/gf256/ >> bench-json.tmp
	$(GO) test -run xxx -bench 'BenchmarkRSEncode32x8_64KiB|BenchmarkRSReconstruct32x8_64KiB|BenchmarkXOREncode32x8_64KiB' -benchmem ./internal/ec/ >> bench-json.tmp
	$(GO) test -run xxx -bench 'BenchmarkCampaign|BenchmarkDES' -benchmem ./internal/protosim/ >> bench-json.tmp
	$(GO) test -run xxx -bench 'BenchmarkDESValidation|BenchmarkGBNBaseline' -benchtime 2x -benchmem . >> bench-json.tmp
	$(GO) test -run xxx -bench 'BenchmarkVirtualHandoff|BenchmarkVirtualSleepChurn|BenchmarkRealWaitNotify' -benchmem ./internal/clock/ >> bench-json.tmp
	$(GO) test -run xxx -bench 'BenchmarkSessionChurn' -benchmem ./internal/session/ >> bench-json.tmp
	$(GO) test -run xxx -bench 'BenchmarkWANVirtual|BenchmarkWANReal' -benchtime 3x -benchmem ./internal/experiments/ >> bench-json.tmp
	$(GO) test -run xxx -bench 'BenchmarkWANFunctionalSweep|BenchmarkMultiDCSweep|BenchmarkAdaptiveSweep' -benchtime 3x -benchmem ./internal/experiments/ >> bench-json.tmp
	$(GO) test -run xxx -bench 'BenchmarkNetemQueue|BenchmarkNetemCrossTraffic|BenchmarkNetemFlowChurn' -benchmem ./internal/netem/ >> bench-json.tmp
	$(GO) test -run xxx -bench 'BenchmarkFunctionalAllreduceVirtual' -benchtime 5x -benchmem ./internal/collective/ >> bench-json.tmp
	$(GO) test -run xxx -bench 'BenchmarkMultiDCVirtual' -benchtime 2x -benchmem ./internal/experiments/ >> bench-json.tmp
	$(GO) test -run xxx -bench 'BenchmarkPerftestSR|BenchmarkPerftestEC|BenchmarkPerftestAdaptive' -benchtime 5x -benchmem ./cmd/sdr-perftest/ >> bench-json.tmp
	$(GO) test -run xxx -bench 'BenchmarkTelemetryProbe|BenchmarkTelemetryDepthFold' -benchmem ./internal/telemetry/ >> bench-json.tmp
	$(GO) test -run xxx -bench 'BenchmarkChaosScenario' -benchtime 3x -benchmem ./internal/chaos/ >> bench-json.tmp
	$(GO) test -run xxx -bench 'BenchmarkSRSample$$' -benchmem ./internal/model/ >> bench-json.tmp
	$(GO) test -run xxx -bench 'BenchmarkRingSample4DC' -benchmem ./internal/collective/ >> bench-json.tmp
	$(GO) run ./cmd/benchjson < bench-json.tmp > BENCH_protosim.json
	rm -f bench-json.tmp

# Serial-vs-parallel sweep scaling: runs the WAN functional sweep with
# one worker and with one worker per core, and prints the speedup.
# On a single-core host the two configurations execute the same
# schedule and the ratio is ≈1.0 — the target documents scaling, it
# does not gate on it.
bench-par:
	@$(GO) test -run xxx -bench 'BenchmarkWANFunctionalSweep(Serial|Parallel)$$' -benchtime 3x ./internal/experiments/ | tee bench-par.tmp
	@awk '/BenchmarkWANFunctionalSweepSerial/   {s=$$3} \
	      /BenchmarkWANFunctionalSweepParallel/ {p=$$3} \
	      END { if (s && p) printf "sweep serial/parallel speedup: %.2fx (serial %.0f ns/op, parallel %.0f ns/op)\n", s/p, s, p }' bench-par.tmp
	@rm -f bench-par.tmp

# Code size per package: non-blank, non-comment lines of the non-test
# .go files and the .s files (assembly comments start with // too)
# under each internal/*, cmd/* and examples/* directory, and their
# total — the number ROADMAP's "least code" aim (and every
# simplicity issue) is judged by. The drivers under cmd/ and examples/
# count: a line moved out of internal/ into them is not a line removed.
loc:
	@for d in internal/*/ cmd/*/ examples/*/; do \
		ls $$d*.go $$d*.s 2>/dev/null | grep -v _test.go | xargs cat | \
		awk -v d=$$d '{ sub(/^[ \t]+/, "") } $$0 == "" || /^\/\// { next } { n++ } END { printf "%6d %s\n", n, d }'; \
	done | awk '{ print; t += $$1 } END { printf "%6d total\n", t }'

# Exported surface per package: exported funcs, methods on exported
# types and exported types as `go doc -all` lists them, and their
# total — the yardstick for surface-collapse issues, beside `make loc`.
api:
	@for d in internal/*/; do \
		printf "%6d %s\n" $$($(GO) doc -all ./$$d | grep -cE '^func [A-Z]|^func \([a-z]+ \*?[A-Z][A-Za-z]*(\[[^]]*\])?\) [A-Z]|^type [A-Z]') $$d; \
	done | awk '{ print; t += $$1 } END { printf "%6d total\n", t }'

# Who calls what: the exported-surface census (surface_test.go) with its
# per-class listing — identifiers whose only outside caller is
# benchmark/, types exported through a signature, struct fields by
# writer class (product, tests only, none), interface methods (listed,
# not gated), the allow-listed ones. The gate itself runs with
# `go test ./...`.
api-unused:
	$(GO) test -count=1 -run TestExportedSurface -v .

# Behaviour-preservation check against a parent revision: build
# sdr-experiments and sdr-perftest from `git archive $(PARENT)` and from
# this tree, then run every command testdata/identity.txt lists on both
# and cmp the outputs (the perftest reports with their wall-clock
# columns stripped). Not part of `make ci` — it needs a parent to
# compare against; the same outputs are pinned without one by the
# hashes in that file, which TestIdentityFigures and
# TestIdentityPerftest check in `go test ./...`.
identity:
	@test -n "$(PARENT)" || { echo "usage: make identity PARENT=<rev>"; exit 2; }
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; mkdir $$tmp/parent; \
	git archive $(PARENT) | tar -x -C $$tmp/parent; \
	for c in sdr-experiments sdr-perftest; do \
		(cd $$tmp/parent && $(GO) build -o $$tmp/parent-$$c ./cmd/$$c); \
		$(GO) build -o $$tmp/head-$$c ./cmd/$$c; \
	done; \
	strip='s/ +[0-9.]+ ms wall//; s/ +[0-9]+ pkts\/s(\/core)?//g'; \
	grep -v '^#' testdata/identity.txt | while read -r _ cmd args; do \
		filter=; [ $$cmd != sdr-perftest ] || filter="$$strip"; \
		for side in parent head; do $$tmp/$$side-$$cmd $$args < /dev/null | sed -E "$$filter" > $$tmp/$$side.out; done; \
		cmp $$tmp/parent.out $$tmp/head.out; echo "identical: $$cmd $$args"; \
	done

# Simulated-metric preservation against a parent revision: build the
# repo benchmark from `git archive $(PARENT)` and from this tree, run
# each of its five workloads at seeds 1-3 for 1 s of timed reps on both,
# and compare the failed count, sim_goodput_gbps and
# sim_completion_rtts_p50 of the result lines digit for digit (the host
# metrics are left out: they are timings). Prints one `identical:` line
# per workload and seed, stops at the first difference. ≈ 4 min, so it
# stays out of `make ci`; TMPDIR is honoured.
BENCH_WORKLOADS = sr_clean wan_sr_nack wan_ec contended_adaptive flow_churn

bench-sim:
	@test -n "$(PARENT)" || { echo "usage: make bench-sim PARENT=<rev>"; exit 2; }
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; mkdir $$tmp/parent; \
	git archive $(PARENT) | tar -x -C $$tmp/parent; \
	(cd $$tmp/parent && $(GO) build -o $$tmp/parent-bench ./benchmark); \
	$(GO) build -o $$tmp/head-bench ./benchmark; \
	sim='s/.*"failed":([0-9]+),.*"sim_completion_rtts_p50":\{"value":([^,]+),.*"sim_goodput_gbps":\{"value":([^,]+),.*/failed \1  sim_goodput_gbps \3  sim_completion_rtts_p50 \2/p'; \
	for w in $(BENCH_WORKLOADS); do for seed in 1 2 3; do \
		for side in parent head; do \
			$$tmp/$$side-bench -workload $$w -seed $$seed -seconds 1 < /dev/null | sed -nE "$$sim" > $$tmp/$$side.out; \
			test -s $$tmp/$$side.out || { echo "$$side: no result line for $$w seed $$seed"; exit 1; }; \
		done; \
		cmp -s $$tmp/parent.out $$tmp/head.out || { echo "differ: $$w seed $$seed"; \
			echo "  parent: $$(cat $$tmp/parent.out)"; echo "  head:   $$(cat $$tmp/head.out)"; exit 1; }; \
		echo "identical: $$w seed $$seed  $$(cat $$tmp/head.out)"; \
	done; done

# Thousand-flow smoke: the elastic session fabric must sustain 1000
# sequential + 100 concurrent dumbbell flows from its deployment pool.
smoke-flows:
	$(GO) test -count=1 -run 'TestDumbbellThousandSequentialFlows|TestDumbbellHundredConcurrentFlows' -v ./internal/netem/

# Adaptive-reliability smoke: dynamic faults land mid-transfer (flap +
# reroute with data in flight), the mid-flight adaptor switches rungs
# deterministically, and the adaptive figure strictly beats every
# static scheme through the regime sweep.
smoke-adaptive:
	$(GO) test -count=1 -run 'TestFlapRerouteInFlightTransfer' -v ./internal/netem/
	$(GO) test -count=1 -run 'TestAdaptiveSwitchoverDeterministic' -v ./internal/reliability/
	$(GO) test -count=1 -run 'TestAdaptiveBeatsStaticSchemes|TestAdaptiveFunctionalSweepParallelMatchesSerial' -v ./internal/experiments/

# Line-rate perftest smoke: every scheme (plus the contended-bottleneck
# mode) moves verified bytes through the full stack, repeated runs are
# byte-identical per seed, and the steady-state data path stays inside
# its allocation budget.
smoke-perftest:
	$(GO) test -count=1 -run 'TestPerftestSchemes|TestPerftestDeterminism|TestPerftestSteadyStateAllocs' -v ./cmd/sdr-perftest/

# Flight-recorder smoke: the adaptive figure's trace is Perfetto-loadable
# JSON carrying ladder switches, the flap and the tail-drops; trace and
# figure bytes are identical across worker counts and GOMAXPROCS; a
# traced perftest emits per-transfer events and completion quantiles;
# the disabled probe path allocates nothing.
smoke-trace:
	$(GO) test -count=1 -run 'TestAdaptiveTraceSmoke|TestAdaptiveTraceByteIdentical' -v ./internal/experiments/
	$(GO) test -count=1 -run 'TestPerftestTraceAndQuantiles' -v ./cmd/sdr-perftest/
	$(GO) test -count=1 -run 'TestDisabledProbeAllocs|TestWriteChromeParses' -v ./internal/telemetry/

# Chaos smoke: 50 fixed-seed fault programs across all five schemes —
# every transfer completes byte-verified or fails with a typed error
# inside the bound, no virtual-clock deadlocks, no poisoned pool
# leases; the report is byte-identical across sweep-worker counts; and
# a 300-program corpus (135 with control-plane faults) renders to its
# pinned SHA-256.
smoke-chaos:
	$(GO) test -count=1 -run 'TestChaosSmoke|TestChaosWorkerDeterminism|TestChaosCorpusGolden' -v ./internal/chaos/

# Golden-behaviour smoke: the per-scheme simulated tuples pinned across
# commits (virtual elapsed, packets, retransmits, NACKs, late re-ACKs,
# ladder switches, receive-buffer hash) and the cross-scheme perftest
# digest, plus the two shared-queue goldens (a flow under Poisson and
# under CBR cross traffic). A refactor of the reliability layer or of
# how netem settles background traffic must pass with the recorded
# literals untouched.
smoke-golden:
	$(GO) test -count=1 -run 'TestReliabilityGoldenTuples' -v ./internal/reliability/
	$(GO) test -count=1 -run 'TestPerftestCrossSchemeDigest' -v ./cmd/sdr-perftest/
	$(GO) test -count=1 -run 'TestSharedQueueGolden|TestSharedQueueCBRGolden' -v ./internal/netem/

# Repo-benchmark smoke: 2-second runs of four workloads of the
# declared benchmark (BENCHMARK.json) — sr_clean, the lossless fast
# path whose set-up (a cold virtual-clock deployment) every rep
# rebuilds; wan_ec, EC(32,8) encode + reconstruct under 1% loss;
# flow_churn, 2000 leases of one pooled dumbbell deployment; and
# contended_adaptive, the adaptive ladder on a netem bottleneck shared
# with Poisson cross traffic. Each exits non-zero if the verification
# rep receives a wrong byte or any timed rep's simulated tuple diverges
# from it, so the cold build, the lease path and the shared queue are
# checked on every `make ci`.
smoke-bench:
	bash benchmark/run.sh --workload sr_clean --seed 1 --seconds 2 --trace 0
	bash benchmark/run.sh --workload wan_ec --seed 1 --seconds 2 --trace 0
	bash benchmark/run.sh --workload flow_churn --seed 1 --seconds 2 --trace 0
	bash benchmark/run.sh --workload contended_adaptive --seed 1 --seconds 2 --trace 0

# Examples smoke: the four shipped examples build, run and exit 0, and
# the two that run the lossy functional stack — on a virtual clock, so
# they byte-verify what they receive — print the same bytes twice.
smoke-examples:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	for e in quickstart tuner allreduce wanreliability; do \
		$(GO) build -o $$tmp/$$e ./examples/$$e; \
		$$tmp/$$e > $$tmp/$$e.out; echo "ok: examples/$$e"; \
	done; \
	for e in allreduce wanreliability; do \
		$$tmp/$$e | cmp - $$tmp/$$e.out; echo "identical across runs: examples/$$e"; \
	done

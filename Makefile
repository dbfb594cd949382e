# Developer entry points. `make ci` is the full gate: vet, build,
# race-enabled tests, and the nil-observer allocation guard (which must
# run without -race — the race detector changes allocation counts, so
# that test skips itself under `make race`).

GO ?= go

.PHONY: ci build vet test race bench-guard bench bench-place bench-smoke fmt fuzz-smoke serve-smoke chaos-smoke analytics-smoke federation-smoke selfheal-smoke bench-federation bench-replace bench-replace-smoke perfbench-smoke

ci: vet build race bench-guard bench-smoke fuzz-smoke serve-smoke chaos-smoke analytics-smoke federation-smoke selfheal-smoke bench-replace-smoke perfbench-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Guard the zero-overhead contract: a nil-observer run must stay within
# 2% of the pre-observability allocation baseline (see
# obs_overhead_test.go).
bench-guard:
	$(GO) test -run TestNilObserverAllocBudget -count=1 -v .

bench:
	$(GO) test -bench=. -benchmem .

# Which benchmarks the fast-placement-path report (BENCH_PR4.json)
# tracks, and the fixed iteration count that bench/pr4_before.txt was
# recorded with (-benchtime=20x keeps before/after comparable).
PLACE_BENCH = BenchmarkSolve$$|BenchmarkPlaceMap|BenchmarkPlaceReduce|BenchmarkEngineSubmit
PLACE_PKGS  = ./internal/lp ./internal/place ./internal/engine

# Which benchmarks the warm-start report (BENCH_PR7.json) tracks. The
# regex deliberately also matches the cold control (BenchmarkResolveCold)
# so the report shows the ~1.0 baseline next to the warm wins. The
# batched-admission path it once compared against is gone: every
# admission solves through one pool task per stage.
PLACE_BENCH7 = BenchmarkResolve|BenchmarkEngineReplace|BenchmarkEngineBurstSubmit
PLACE_PKGS7  = ./internal/lp ./internal/engine

# Regenerate the placement fast-path benchmark report: run the tracked
# benchmarks 5×, then diff the medians against the checked-in baseline
# bench/pr4_before.txt into BENCH_PR4.json (speedup + allocation
# ratios).
bench-place:
	$(GO) test -run '^$$' -bench '$(PLACE_BENCH)' -benchmem -benchtime=20x -count=5 $(PLACE_PKGS) | tee bench/pr4_after.txt
	$(GO) run ./cmd/benchjson -before bench/pr4_before.txt -after bench/pr4_after.txt -out BENCH_PR4.json
	@grep geomean BENCH_PR4.json
	$(GO) test -run '^$$' -bench '$(PLACE_BENCH7)' -benchmem -benchtime=20x -count=5 $(PLACE_PKGS7) | tee bench/pr7_after.txt
	$(GO) run ./cmd/benchjson -before bench/pr7_before.txt -after bench/pr7_after.txt -out BENCH_PR7.json
	@grep geomean BENCH_PR7.json

# One-iteration pass over every benchmark in the placement path: proves
# the bench harnesses still compile and run without paying for a full
# measurement.
bench-smoke:
	$(GO) test -run '^$$' -bench '$(PLACE_BENCH)|$(PLACE_BENCH7)' -benchtime=1x $(PLACE_PKGS)

# Short fuzzing passes over the LP solver (every solution certified
# against the brute-force reference / duality bound) and the placement
# layer (every placement checked against the paper's conservation
# equations). Go allows one -fuzz pattern per invocation, hence two runs.
fuzz-smoke:
	$(GO) test ./internal/check -fuzz=FuzzSolve -fuzztime=10s
	$(GO) test ./internal/place -fuzz=FuzzPlaceMap -fuzztime=10s

# End-to-end check of the one serving path at its default shard count
# (N = 1): tetrium-serve starts the federation router on an ephemeral
# port, submits 10 jobs over the wire, fires a §4.2 cluster update,
# polls everything to completion, checks jobs.done in /metrics.txt and
# /metrics, one drop per shard in /debug/events and the
# /v1/federation view, drains, and exits non-zero on any deviation.
# federation-smoke runs the same smoke at two shards with a journal.
# (`make race` covers the engine's concurrency tests: go test -race ./...
# includes ./internal/engine/...)
serve-smoke:
	$(GO) run ./cmd/tetrium-serve -smoke -cluster paper -time-scale 0.002

# Failure-domain gate: the engine chaos test (site crashes, partition,
# stragglers, solver stalls under concurrent submitters — zero lost
# jobs) plus the crash-restart and SIGTERM-drain subprocess tests, all
# under the race detector.
chaos-smoke:
	$(GO) test -race -count=1 -run 'TestChaosEngine' ./internal/engine
	$(GO) test -race -count=1 -run 'TestCrashRestart|TestSigtermDrain' ./cmd/tetrium-serve

# Fleet-analytics gate: a live multi-tenant run (one-shard federation)
# must serve all four /v1/analytics endpoint families as well-formed
# per-tenant JSON, the staged 1→N-client loadgen must print its
# latency + attribution tables, offline tetrium-fleet ingestion of the
# run's journal + event trace must reproduce the live totals
# bit-for-bit, and the store must keep answering and snapshotting
# across shard restarts. The engine alloc-guard (zero allocations on
# the event path with analytics off) rides along.
analytics-smoke:
	$(GO) test -count=1 -run 'TestAnalyticsSmoke|TestFleetCLIUsage' ./cmd/tetrium-fleet
	$(GO) test -count=1 -run 'TestFederationAnalyticsSurvivesRestart' .
	$(GO) test -count=1 -run 'TestStagedLoadgen' ./cmd/tetrium-serve
	$(GO) test -count=1 -run 'TestAnalyticsDisabledHotPath|TestAnalyticsLiveOfflineParity' ./internal/engine

# Federation gate: the serve smoke at 2 shards with a journal (submit
# across shards, kill + journal-restore shard 0, §4.2 drop, poll to
# done, merged metrics/events/status, drain), then the router hammer,
# shard-loss-mid-flight chaos and one-shard ≡ bare-engine differential
# tests plus the serve-level 2-shard crash-restart subprocess test, all
# under the race detector.
federation-smoke:
	$(GO) run ./cmd/tetrium-serve -smoke -shards 2 -journal $$(mktemp -d)/journal -time-scale 0.002
	$(GO) test -race -count=1 -run 'TestRouterHammer|TestShardLossMidFlight|TestShardsOneMatchesEngine' ./internal/federation
	$(GO) test -race -count=1 -run 'TestFederationCrashRestart' ./cmd/tetrium-serve

# Self-healing gate (PR 10), all under the race detector: the chaos
# tentpole (a supervised 2-shard journaled fleet survives an injected
# event-loop panic, a SIGKILL-style shard loss, and a corrupted journal
# record — all healed automatically, zero lost jobs, readiness degraded
# not failed), the flap-breaker and fault-timeline tests, exactly-once
# idempotent submit across a crash, and the subprocess restart over a
# damaged journal. The serve smoke then re-runs with -supervise at two
# shards and at the default one, so the heals happen under live
# supervision end to end at both.
selfheal-smoke:
	$(GO) test -race -count=1 -run 'TestSelfHealChaos|TestBreakerParksFlappingShard|TestChaosTimelineFires|TestFederationIdemExactlyOnce|TestUnhealthyRetryAfterDeadline' ./internal/federation
	$(GO) test -race -count=1 -run 'TestCrashRestartCorruptJournal' ./cmd/tetrium-serve
	$(GO) run ./cmd/tetrium-serve -smoke -shards 2 -supervise -journal $$(mktemp -d)/journal -time-scale 0.002
	$(GO) run ./cmd/tetrium-serve -smoke -supervise -journal $$(mktemp -d)/journal -time-scale 0.002

# Regenerate the federation scaling report: aggregate submit throughput
# at 1 vs 2 vs 4 shards over a 4000-job resident fleet (best-of-3 per
# configuration), written to BENCH_PR8.json.
bench-federation:
	TETRIUM_FED_BENCH_OUT=$(CURDIR)/BENCH_PR8.json $(GO) test -count=1 -run TestSubmitThroughputScaling -v -timeout 600s ./internal/federation
	@grep speedup BENCH_PR8.json

# Regenerate the incremental re-placement report (BENCH_PR9.json):
# cluster-update latency over a 2048-job resident fleet at 1/2/4 shards,
# full replaceAll (TETRIUM_REPLACE_MODE=full, the pre-PR 9 baseline)
# vs dirty-set re-placement solved synchronously on the event loop
# (incr). benchjson gates the geomean at ≥ 1.0 so a regressed report
# can never be committed silently; the PR 9 acceptance bar is ≥ 5×.
bench-replace:
	TETRIUM_REPLACE_MODE=full $(GO) test -run '^$$' -bench BenchmarkClusterUpdate -benchtime=5x -count=5 -timeout 1200s ./internal/federation | tee bench/pr9_full.txt
	TETRIUM_REPLACE_MODE=incr $(GO) test -run '^$$' -bench BenchmarkClusterUpdate -benchtime=5x -count=5 -timeout 1200s ./internal/federation | tee bench/pr9_incr.txt
	$(GO) run ./cmd/benchjson -before bench/pr9_full.txt -after bench/pr9_incr.txt -min-speedup 1.0 -out BENCH_PR9.json
	@grep geomean BENCH_PR9.json

# CI-sized version of bench-replace: a small resident fleet, two
# iterations, throwaway output files — proves the harness runs and that
# incremental §4.2 is not slower than the full scan it replaced.
bench-replace-smoke:
	@dir=$$(mktemp -d); \
	TETRIUM_REPLACE_MODE=full TETRIUM_REPLACE_RESIDENT=160 $(GO) test -run '^$$' -bench BenchmarkClusterUpdate -benchtime=2x ./internal/federation > $$dir/full.txt && \
	TETRIUM_REPLACE_MODE=incr TETRIUM_REPLACE_RESIDENT=160 $(GO) test -run '^$$' -bench BenchmarkClusterUpdate -benchtime=2x ./internal/federation > $$dir/incr.txt && \
	$(GO) run ./cmd/benchjson -before $$dir/full.txt -after $$dir/incr.txt -min-speedup 1.0 -out $$dir/smoke.json && \
	grep geomean $$dir/smoke.json; \
	rc=$$?; rm -rf $$dir; exit $$rc

# The benchmark module (perfbench/, its own go.mod) imports the engine,
# HTTP API and federation packages; vet and short-test it so an API
# change that breaks the benchmark fails CI instead of the next run.
perfbench-smoke:
	cd perfbench && $(GO) vet ./... && $(GO) test -short ./...

fmt:
	gofmt -l -w .

# Development entry points. `make check` is the full verification
# recipe: build everything, vet, and run the test suite under the race
# detector.

GO ?= go

# Committed benchmark baseline for the regression gate (see
# cmd/benchjson and DESIGN.md §9). BENCH_10 was captured after request
# spans became one allocation and the sampler stopped re-sorting the
# registry per tick, so the allocs/op gate locks in
# BenchmarkSpanLifecycle's single allocation, BenchmarkSamplerSample's
# zero and BenchmarkAnalyze's count, and it adds
# BenchmarkWriteChromeTrace; its meta records the host's core count.
BENCH_SNAPSHOT ?= BENCH_10.json

.PHONY: check build vet test race determinism bench bench-compare bench-smoke report fuzz-smoke chaos examples cover blame watch attack scale-sweep why loc

check: build vet race determinism examples blame watch attack scale-sweep why report

build:
	$(GO) build ./...

# bench/ is its own module, so `./...` skips it: vet it separately to
# catch API changes it depends on. Any file gofmt would rewrite fails.
vet:
	$(GO) vet ./...
	cd bench && $(GO) vet .
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# -short skips the slowest oracles (claims) and the four largest figure
# matrices (fig5, fig6, fig9, fig12) in the golden pass; the race job
# still covers the harness's per-figure serial-vs-parallel subtests and
# the parallel golden pass over every other table. internal/sim and
# internal/cluster skip nothing under -short, so this also runs the
# sharded engine's layout oracle (TestShardedMatchesOneEngine) and the
# cluster suite under the detector (DESIGN.md §14).
race:
	$(GO) test -race -short ./...

# Full determinism oracle: experiments.All rendered serially and on 4
# workers must match byte for byte. Too slow for tier-1, where every
# table's parallel rendering is diffed against its serial golden
# instead, so it sits behind the determinism build tag.
determinism:
	$(GO) test -tags determinism ./internal/experiments -run TestAllParallelMatchesSerial

# Benchmark snapshot: the per-figure evaluation benchmarks (root
# package) plus the engine microbenchmarks, captured as JSON for the
# regression gate.
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./... > bench.out || { cat bench.out; rm -f bench.out; exit 1; }
	@cat bench.out
	$(GO) run ./cmd/benchjson -o $(BENCH_SNAPSHOT) < bench.out
	@rm -f bench.out

# Regression gate: measure a fresh snapshot and compare it against the
# committed baseline with a ±15% tolerance. allocs/op is gated on every
# host; ns/op only when the host metadata matches the baseline's.
bench-compare:
	$(GO) test -run '^$$' -bench . -benchmem ./... > bench.new.out || { cat bench.new.out; rm -f bench.new.out; exit 1; }
	@cat bench.new.out
	$(GO) run ./cmd/benchjson -o bench.new.json < bench.new.out
	$(GO) run ./cmd/benchjson -compare -tolerance 0.15 $(BENCH_SNAPSHOT) bench.new.json
	@rm -f bench.new.out bench.new.json

# End-to-end benchmark smoke: the bench module's own tests, then 2 s
# paper-spin, paper-block, rack-outage and rack-audit passes. run.sh
# exits non-zero when the first block's sim_digest misses its pin in
# bench/baseline.json, so any change to simulated behaviour fails here.
# The paper-block pin covers block/wake same-instant event ordering;
# the rack-outage pin also covers the sharded coordinator and the
# hosts' flight-recorder rings; the rack-audit pin covers the cluster
# path with the decision log and span tracer recording.
bench-smoke:
	cd bench && $(GO) test -short .
	bash bench/run.sh --workload paper-spin --seed 1 --seconds 2 --trace 0
	bash bench/run.sh --workload paper-block --seed 1 --seconds 2 --trace 0
	bash bench/run.sh --workload rack-outage --seed 1 --seconds 2 --trace 0
	bash bench/run.sh --workload rack-audit --seed 1 --seconds 2 --trace 0

# Latency blame attribution smoke run: per-strategy p50/p99/p99.9
# category breakdowns plus the slowest requests' critical paths, on the
# default bully rig (experiments.BlameRig, a 2 s request stream).
blame:
	$(GO) run ./cmd/irsblame -strategy vanilla,irs -top 3

# Online SLO watchdog smoke run: the bully rig must page within one
# slow window and attribution must rank the bully first. The incident
# bundle (JSON + Perfetto trace) lands next to the repo root.
watch:
	$(GO) run ./cmd/irsload -variant bully -alerts -expect-top bully -dump incident

# Telemetry smoke run: the registry/sampler/trace summary for vanilla
# vs IRS on the §5.1 rig, streamcluster against one hog (add
# -prom/-csv/-tracejson <file|-> for the exports; CI runs all three).
report:
	$(GO) run ./cmd/irsreport -strategy vanilla,irs

# Short fuzz pass over the committed seed corpora plus a few seconds of
# fresh exploration per target.
fuzz-smoke:
	$(GO) test ./internal/sim -run '^$$' -fuzz FuzzEventHeapOrdering -fuzztime 5s
	$(GO) test ./internal/sim -run '^$$' -fuzz FuzzShardedCoordinator -fuzztime 5s
	$(GO) test ./internal/kv -run '^$$' -fuzz FuzzTable -fuzztime 5s
	$(GO) test ./internal/fault -run '^$$' -fuzz FuzzParsePlan -fuzztime 5s
	$(GO) test ./internal/watch -run '^$$' -fuzz FuzzParseRule -fuzztime 5s
	$(GO) test ./internal/workload -run '^$$' -fuzz FuzzParseAttack -fuzztime 5s
	$(GO) test ./internal/topology -run '^$$' -fuzz FuzzParseLoadSpec -fuzztime 5s
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzParseHostSpec -fuzztime 5s
	$(GO) test ./internal/decision -run '^$$' -fuzz FuzzParseQuery -fuzztime 5s
	$(GO) test ./internal/decision -run '^$$' -fuzz FuzzWriteJSON -fuzztime 5s
	$(GO) test ./internal/decision -run '^$$' -fuzz FuzzRouteRecords -fuzztime 5s
	$(GO) test ./internal/obs -run '^$$' -fuzz FuzzChromeEmit -fuzztime 5s
	$(GO) test ./internal/span -run '^$$' -fuzz FuzzWriteChromeSpans -fuzztime 5s
	$(GO) test ./internal/span -run '^$$' -fuzz FuzzSpanRecording -fuzztime 5s

# Adversarial-tenant smoke run: the tick-evader vs every accounting
# defense; the gate fails unless jittered ticks + exact accounting
# together hold the attacker within 5% of its fair share.
attack:
	$(GO) run ./cmd/irsim -attack tick-evade -expect-overshoot 1.05

# Robustness sweep: fault rates vs strategies with invariant audits.
chaos:
	$(GO) run ./cmd/irsim -runs 1 chaos

# Multi-rack control-plane smoke run: the 2-zone × 8-host acceptance
# rig with a zone outage mid-ramp. The gate fails unless the router
# fails over, every request is conserved, the invariants stay clean,
# and the post-recovery SLO-violation rate is below 1%.
scale-sweep:
	$(GO) run ./cmd/irsload -variant 2z8h-outage -expect 1.0

# Decision-provenance smoke run: replay the outage rig with the audit
# log attached and gate on the exact decision trail (cordon, the first
# failover route, +2 replicas, then the two drains). The full log lands
# next to the repo root as decisions.json.
why:
	$(GO) run ./cmd/irsload -variant 2z8h-outage -why ctl -trail cordon,failover,scale-up,scale-up,drain,drain -json decisions.json

# Compile and run every example end to end (each also has a unit test
# exercising its run() body, picked up by `make test`).
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/server
	$(GO) run ./examples/parsec
	$(GO) run ./examples/stacking

# Coverage gate: statement coverage over internal/ must stay at or
# above COVER_MIN (baseline measured at ~91%).
COVER_MIN ?= 85.0

cover:
	$(GO) test -coverprofile=cover.out -coverpkg=./internal/... ./...
	@$(GO) tool cover -func=cover.out | tail -1
	@total=$$($(GO) tool cover -func=cover.out | tail -1 | awk '{print $$3}' | tr -d '%'); \
	 rm -f cover.out; \
	 awk -v t=$$total -v min=$(COVER_MIN) 'BEGIN { \
	   if (t+0 < min+0) { printf "FAIL: coverage %.1f%% below floor %.1f%%\n", t, min; exit 1 } \
	   printf "OK: coverage %.1f%% >= floor %.1f%%\n", t, min }'

# Code-size counts tracked in ROADMAP.md: non-blank, non-comment,
# non-test Go lines under internal/ and cmd/, raw test-Go lines there,
# then the flags each irs* binary lists in its -help output.
loc:
	@printf 'go lines (internal/ + cmd/, non-test, non-blank, non-comment): '
	@find internal cmd -name '*.go' ! -name '*_test.go' -exec cat {} + | grep -v '^[[:space:]]*$$' | grep -cv '^[[:space:]]*//'
	@printf 'test go lines (internal/ + cmd/, raw): '
	@find internal cmd -name '*_test.go' -exec cat {} + | wc -l
	@total=0; for b in $$(cd cmd && ls -d irs*); do \
		n=$$($(GO) run ./cmd/$$b -help 2>&1 | grep -c '^  -'); \
		echo "flags $$b: $$n"; total=$$((total + n)); \
	done; echo "flags total: $$total"

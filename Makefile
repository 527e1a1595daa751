GO ?= go

# `make check` is the tier-1 CI gate (see ROADMAP.md), enforced by
# .github/workflows/ci.yml: build, formatting, vet, the full test
# suite under the race detector, the region-engine determinism
# matrix raced at two pinned GOMAXPROCS values, and vet plus tests of
# the benchmark module.
.PHONY: check fmt vet test race race-matrix perfbench build bench

check: build fmt vet race race-matrix perfbench

build:
	$(GO) build ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-matrix re-runs the region engine's determinism tests under the
# race detector at pinned GOMAXPROCS values, forcing both the starved
# (2) and oversubscribed (8 workers on however many cores) barrier
# interleavings. The golden matrix shrinks to a representative slice
# under race (see internal/experiments/golden_matrix_test.go).
RACE_MATRIX_RUN = 'TestGoldenWorkersMatrix|TestWorkersBitIdentical|TestParallelRunsAreIndependent'
race-matrix:
	GOMAXPROCS=2 $(GO) test -race -run $(RACE_MATRIX_RUN) ./internal/experiments ./internal/sim
	GOMAXPROCS=8 $(GO) test -race -run $(RACE_MATRIX_RUN) ./internal/experiments ./internal/sim

# perfbench is its own module (perfbench/go.mod replaces locmap with
# this checkout), so the ./... patterns above skip it; vetting and
# testing it here makes an API change that breaks the benchmark fail
# the gate.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# `make bench` runs the simulator micro-benchmarks (RunNest, NoC send,
# cache access), the RunNest-dominated figure benchmarks, and the
# fast-tier benchmarks (estimate-tier serve p50/p99 latency and the
# estimate-vs-simulation alpha error), and merges the numbers into
# BENCH_sim.json under BENCH_LABEL (default "post"; the checked-in
# "pre" capture is the pre-optimization baseline of PR 3).
# Short smoke run: make bench BENCHTIME_MICRO=1x BENCHTIME_FIG=1x BENCHTIME_EST=5x
#
# A second capture under the "parallel-sim" label pairs the sequential
# RunNest benchmarks with the region engine's workers=1-vs-workers=N
# sub-benchmarks (ParNest*, ParFig07), so in-run speedup and the
# serial-path overhead live in one record.
#
# A third capture under the "placeopt" label records the placement
# search's throughput (candidates/sec through the estimate tier),
# which bounds how many chip layouts one /v1/optimize request can
# afford to score.
#
# A fourth capture under the "tenancy" label records the session
# control loop: co-placement search throughput (candidates/sec, the
# cost of a tenant joining or leaving a group), the telemetry-ingest
# hot path, and the end-to-end remap latency (remap-ms: drift trigger
# to atomic plan swap, one estimate + one verification simulation).
BENCH_LABEL ?= post
BENCH_PAR_LABEL ?= parallel-sim
BENCH_PLACE_LABEL ?= placeopt
BENCH_TEN_LABEL ?= tenancy
BENCHTIME_MICRO ?= 2s
BENCHTIME_FIG ?= 3x
BENCHTIME_EST ?= 50x
BENCHTIME_PLACE ?= 3x
BENCHTIME_TEN ?= 5x
bench:
	@rm -f .bench.out
	$(GO) test -run '^$$' -bench 'RunNest|NoCSend|CacheAccess|CacheLookup' \
		-benchtime $(BENCHTIME_MICRO) -benchmem ./internal/sim ./internal/cache | tee -a .bench.out
	$(GO) test -run '^$$' -bench 'BenchmarkFig02IdealNetwork|BenchmarkFig07Private|BenchmarkFig08Shared|BenchmarkMultiprogrammed' \
		-benchtime $(BENCHTIME_FIG) -benchmem . | tee -a .bench.out
	$(GO) test -run '^$$' -bench 'BenchmarkEstimateTierServe|BenchmarkEstimateAlphaError' \
		-benchtime $(BENCHTIME_EST) ./internal/server ./internal/estimate | tee -a .bench.out
	$(GO) run ./cmd/benchjson -label $(BENCH_LABEL) -note "$(BENCH_NOTE)" -out BENCH_sim.json < .bench.out
	@rm -f .bench.out .bench.par.out
	$(GO) test -run '^$$' -bench 'RunNestPrivate$$|RunNestShared$$|ParNest' \
		-benchtime $(BENCHTIME_MICRO) -benchmem ./internal/sim | tee -a .bench.par.out
	$(GO) test -run '^$$' -bench 'ParFig07' \
		-benchtime $(BENCHTIME_FIG) -benchmem . | tee -a .bench.par.out
	$(GO) run ./cmd/benchjson -label $(BENCH_PAR_LABEL) -note "$(BENCH_NOTE)" -out BENCH_sim.json < .bench.par.out
	@rm -f .bench.par.out .bench.place.out
	$(GO) test -run '^$$' -bench 'BenchmarkPlaceoptSearch' \
		-benchtime $(BENCHTIME_PLACE) -benchmem ./internal/placeopt | tee -a .bench.place.out
	$(GO) run ./cmd/benchjson -label $(BENCH_PLACE_LABEL) -note "$(BENCH_NOTE)" -out BENCH_sim.json < .bench.place.out
	@rm -f .bench.place.out .bench.ten.out
	$(GO) test -run '^$$' -bench 'BenchmarkCoPlace|BenchmarkIngest' \
		-benchtime $(BENCHTIME_MICRO) -benchmem ./internal/tenancy | tee -a .bench.ten.out
	$(GO) test -run '^$$' -bench 'BenchmarkSessionRemap' \
		-benchtime $(BENCHTIME_TEN) ./internal/server | tee -a .bench.ten.out
	$(GO) run ./cmd/benchjson -label $(BENCH_TEN_LABEL) -note "$(BENCH_NOTE)" -out BENCH_sim.json < .bench.ten.out
	@rm -f .bench.ten.out

GO ?= go

.PHONY: all vet sort-guard build test race bench bench-json bench-check bench-build trace-smoke fuzz-smoke chaos-smoke serve-smoke acc-json acc-smoke ci

all: ci

vet:
	$(GO) vet ./...

# The engine sorts with the typed slices.Sort*/SortFunc family: the
# reflection-swapper sort.Slice/sort.SliceStable cost 3x on the database
# build and stay only in tests, as the reference the new sorts are checked
# against.
sort-guard:
	@! grep -rnE 'sort\.Slice(Stable)?\(' --include='*.go' --exclude='*_test.go' internal/engine \
		|| { echo "sort-guard: sort.Slice/sort.SliceStable in non-test engine code"; exit 1; }

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The concurrency-sensitive packages: registry-driven concurrent queries,
# cross-goroutine snapshot capture, the buffer-pool latch, the parallel
# tracing harness (worker pool + ordered merge), the intra-query parallel
# executor (gather workers + per-thread counters + estimator), the chaos
# harness (fault injection into parallel workers and the poller), the
# expression compiler (compiled predicates run on every parallel worker),
# and the monitoring server (concurrent submit/poll/stream/cancel over HTTP).
race:
	$(GO) test -race ./internal/lqs/... ./internal/engine/dmv/... ./internal/metrics/... ./internal/trace/... ./internal/obs/... ./internal/engine/exec/... ./internal/engine/expr/... ./internal/progress/... ./internal/chaos/... ./internal/server/... ./internal/accuracy/...

# Short coverage-guided runs of every native fuzz target: the DMV
# per-thread aggregation and the progress estimator fed adversarial
# snapshots. Seeds always run under plain `make test`; this adds a bounded
# mutation pass so CI exercises the generators too.
fuzz-smoke:
	$(GO) test ./internal/engine/dmv/ -run '^$$' -fuzz FuzzAggregateThreads -fuzztime 10s
	$(GO) test ./internal/progress/ -run '^$$' -fuzz FuzzEstimator -fuzztime 200x
	$(GO) test ./internal/progress/ -run '^$$' -fuzz FuzzDegradedSnapshot -fuzztime 200x
	$(GO) test ./internal/progress/ -run '^$$' -fuzz FuzzEnsembleSelect -fuzztime 200x

# Quick chaos differential battery through the CLI entry point: a reduced
# (workload x DOP x fault-rate) grid where every chaos run must either be
# byte-identical to the fault-free reference or fail with a typed error,
# with estimator invariants checked at every poll. Exits non-zero on any
# contract violation.
chaos-smoke:
	$(GO) run ./cmd/lqsbench -chaos -chaos-seed 7

# Quick-mode suite with parallel tracing; machine-readable timings (with
# speedup vs a serial reference pass) land in bench.json.
bench:
	$(GO) run ./cmd/lqsbench -parallel 0 -bench-json bench.json

# Wall-clock benchmark trajectory: run the go-test benchmarks (one per
# paper figure, plus the estimator and batch-size micro-benchmarks) and
# convert the output into a committed JSON artifact. Compare BENCH_*.json
# across PRs to see where execution time went. Override the label per PR:
# `make bench-json BENCH_LABEL=pr8`.
BENCH_LABEL ?= pr7
BENCH_TIME ?= 3x
bench-json:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCH_TIME) . > bench-raw.txt
	$(GO) run ./cmd/benchjson -label $(BENCH_LABEL) -o BENCH_$(BENCH_LABEL).json < bench-raw.txt
	@rm -f bench-raw.txt

# Tiny tracing smoke test: run a few queries with event tracing on, emit
# Chrome trace-event JSON, and validate it against the schema (ValidateChrome
# runs inside lqsbench before each file is written; the python step checks
# the files parse as the JSON-object trace format Perfetto expects).
trace-smoke:
	rm -rf .trace-smoke && $(GO) run ./cmd/lqsbench -run none -trace-dir .trace-smoke -trace-limit 2
	$(GO) run ./cmd/lqsmon -plain -explain -interval 5ms -q Q1 > /dev/null
	@ls .trace-smoke/*.trace.json .trace-smoke/*.explain.txt > /dev/null
	@rm -rf .trace-smoke && echo "trace-smoke: OK"

# End-to-end smoke of the monitoring server binary: start lqsd on a local
# port, submit one query over HTTP, wait for it to succeed, submit a second
# on the same (workload, seed) — which must be served from the table cache —
# scrape /metrics and require the query-progress family, then shut the
# server down cleanly (SIGTERM exercises the graceful-drain path).
serve-smoke:
	@rm -f .serve-smoke.log
	$(GO) build -o .lqsd-smoke ./cmd/lqsd
	@./.lqsd-smoke -addr 127.0.0.1:18321 -pace 0 > .serve-smoke.log 2>&1 & \
	pid=$$!; \
	trap "kill $$pid 2>/dev/null; rm -f .lqsd-smoke .serve-smoke.log" EXIT; \
	for i in $$(seq 1 50); do \
		curl -sf http://127.0.0.1:18321/healthz > /dev/null 2>&1 && break; sleep 0.1; \
	done; \
	curl -sf -X POST http://127.0.0.1:18321/queries -d '{"workload":"tpch","query":"Q6","tenant":"smoke"}' | grep -q '"id":1' || { echo "serve-smoke: submit failed"; exit 1; }; \
	for i in $$(seq 1 100); do \
		curl -sf http://127.0.0.1:18321/queries/1 | grep -q '"state":"SUCCEEDED"' && break; sleep 0.1; \
	done; \
	curl -sf http://127.0.0.1:18321/queries/1 | grep -q '"state":"SUCCEEDED"' || { echo "serve-smoke: query never succeeded"; exit 1; }; \
	curl -sf -X POST http://127.0.0.1:18321/queries -d '{"workload":"tpch","query":"Q1","tenant":"smoke"}' | grep -q '"id":2' || { echo "serve-smoke: second submit failed"; exit 1; }; \
	curl -sf http://127.0.0.1:18321/metrics | grep -q '^server_table_cache_hits 1$$' || { echo "serve-smoke: second query on the same (workload, seed) missed the table cache"; exit 1; }; \
	curl -sf http://127.0.0.1:18321/metrics | grep -q '^lqs_query_progress{.*tenant="smoke"' || { echo "serve-smoke: /metrics missing lqs_query_progress"; exit 1; }; \
	curl -sf http://127.0.0.1:18321/metrics | grep -q '^lqs_buffer_manager_page_hits_total{' || { echo "serve-smoke: /metrics missing buffer-manager family"; exit 1; }; \
	kill -TERM $$pid; wait $$pid || { echo "serve-smoke: lqsd did not drain cleanly"; exit 1; }; \
	echo "serve-smoke: OK"

# Estimator-accuracy trajectory artifact: replay the quick suite through
# every estimator mode (TGN/DNE/LQS/ENS) against the ground-truth oracle and
# commit the per-query error metrics. Deterministic: the same seed yields
# a byte-identical file. Exits non-zero if any mode breaches its pinned
# error ceiling. Override the label per PR: `make acc-json ACC_LABEL=pr10`.
ACC_LABEL ?= pr10
acc-json:
	$(GO) run ./cmd/lqsbench -accuracy -acc-label $(ACC_LABEL) -acc-json ACC_$(ACC_LABEL).json

# Quick accuracy gate for CI: same suite, artifact to a scratch file, plus
# the in-tree threshold test (the per-mode ceilings also run under plain
# `make test` via TestQuickSuiteWithinCeilings).
acc-smoke:
	$(GO) run ./cmd/lqsbench -accuracy -acc-label ci -acc-json .acc-smoke.json
	@rm -f .acc-smoke.json && echo "acc-smoke: OK"

# The repo benchmark (bench/, driven by BENCHMARK.json) is a module of its
# own that imports internal/ through a replace directive, so `go build
# ./...` and `go test ./...` above never compile it. Vet it and run its
# short tests here, so an internal/ API change that breaks it fails CI
# rather than the next benchmark run.
bench-check:
	cd bench && $(GO) vet . && $(GO) test -short .

# Run each database-build benchmark once so they cannot rot; the numbers
# that matter are taken with -benchtime 5x -count 3 (see CHANGES.md).
bench-build:
	$(GO) test ./internal/workload -run '^$$' -bench Build -benchtime 1x

ci: vet sort-guard build test race trace-smoke fuzz-smoke chaos-smoke serve-smoke acc-smoke bench-check bench-build

GO ?= go

.PHONY: all vet sort-guard build test race bench-check bench-build bench-replay trace-smoke examples-smoke fuzz-smoke chaos-smoke serve-smoke acc-json acc-smoke ci

all: ci

vet:
	$(GO) vet ./...

# The engine (internal/engine/dmv included) and the estimator's per-poll
# paths sort with the typed slices.Sort*/SortFunc family: the
# reflection-swapper sort.Slice/sort.SliceStable cost 3x on the database
# build and stay only in tests, as the reference the new sorts are checked
# against.
sort-guard:
	@! grep -rnE 'sort\.Slice(Stable)?\(' --include='*.go' --exclude='*_test.go' internal/engine internal/progress \
		|| { echo "sort-guard: sort.Slice/sort.SliceStable in non-test engine or estimator code"; exit 1; }

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The concurrency-sensitive packages: concurrent monitored queries over one
# database and a cancel from another goroutine, the counter-lock capture
# (dmv.CaptureSync), the buffer-pool latch, the parallel tracing harness
# (worker pool + ordered merge), the intra-query parallel executor
# (gather workers + per-thread counters + estimator), the chaos
# harness (fault injection into parallel workers and the poller), the
# expression compiler (compiled predicates run on every parallel worker),
# the string intern table (lock-free reads beside interning), the shared
# table storage (concurrent queries read views of one cached table set),
# the generators that build it, the indexes and column statistics the first
# reader of any view builds (storage, catalog, and opt, whose estimates
# read them), and the monitoring server (concurrent
# submit/poll/stream/cancel over HTTP).
race:
	$(GO) test -race ./internal/engine/types/... ./internal/engine/storage/... ./internal/engine/catalog/... ./internal/opt/... ./internal/workload/... ./internal/lqs/... ./internal/engine/dmv/... ./internal/metrics/... ./internal/trace/... ./internal/obs/... ./internal/engine/exec/... ./internal/engine/expr/... ./internal/progress/... ./internal/chaos/... ./internal/server/... ./internal/accuracy/...

# Short coverage-guided runs of every native fuzz target: the value order
# codes the database build sorts on, the key hash and key compares of the
# hash tables and merge joins, the DMV per-thread aggregation, the
# progress estimator fed adversarial snapshots and the monitoring server's
# HTTP API fed arbitrary requests. Seeds always run under plain `make test`; this adds a bounded
# mutation pass so CI exercises the generators too.
fuzz-smoke:
	$(GO) test ./internal/engine/types/ -run '^$$' -fuzz FuzzOrderCode -fuzztime 10s
	$(GO) test ./internal/engine/types/ -run '^$$' -fuzz FuzzKeyHash -fuzztime 10s
	$(GO) test ./internal/engine/dmv/ -run '^$$' -fuzz FuzzAggregateThreads -fuzztime 10s
	$(GO) test ./internal/progress/ -run '^$$' -fuzz FuzzEstimator -fuzztime 200x
	$(GO) test ./internal/progress/ -run '^$$' -fuzz FuzzDegradedSnapshot -fuzztime 200x
	$(GO) test ./internal/progress/ -run '^$$' -fuzz FuzzEnsembleSelect -fuzztime 200x
	$(GO) test ./internal/server/ -run '^$$' -fuzz FuzzServerAPI -fuzztime 15s

# Quick chaos differential battery through the CLI entry point: a reduced
# (workload x DOP x fault-rate) grid where every chaos run must either be
# byte-identical to the fault-free reference or fail with a typed error,
# with estimator invariants checked at every poll. Exits non-zero on any
# contract violation.
chaos-smoke:
	$(GO) run ./cmd/lqsbench chaos -seed 7

# Tiny tracing smoke test: run a few queries with event tracing on, emit
# Chrome trace-event JSON, and validate it against the schema (ValidateChrome
# runs inside lqsbench before each file is written); then require every
# artifact to exist, and run lqsmon's explain path with and without chaos.
trace-smoke:
	rm -rf .trace-smoke && $(GO) run ./cmd/lqsbench trace -dir .trace-smoke -limit 2
	$(GO) run ./cmd/lqsmon -plain -explain -interval 5ms -q Q1 > /dev/null
	$(GO) run ./cmd/lqsmon -plain -explain -chaos 0.05 -q Q5 > /dev/null
	@ls .trace-smoke/*.trace.json .trace-smoke/*.explain.txt .trace-smoke/metrics.txt > /dev/null
	@rm -rf .trace-smoke && echo "trace-smoke: OK"

# Run every example end to end; each must exit 0. The multiquery dashboard
# reads frames that per-query goroutines publish and cancels one query from
# its own goroutine, so it runs under the race detector. It runs twice, and
# the summary lines of the two queries it lets finish must be identical:
# each query reads its own view of the database, so its virtual time does
# not depend on how the goroutines were scheduled. (The cancelled query
# stops wherever the dashboard's real-time cancel finds it.)
examples-smoke:
	$(GO) run ./examples/quickstart > /dev/null
	$(GO) run ./examples/troubleshoot > /dev/null
	$(GO) run ./examples/columnstore > /dev/null
	$(GO) run -race ./examples/multiquery > .multiquery-1.txt
	$(GO) run ./examples/multiquery > .multiquery-2.txt
	@trap "rm -f .multiquery-1.txt .multiquery-2.txt" EXIT; \
	a=$$(grep -E '^  (filter-scan|merge-join) ' .multiquery-1.txt); \
	b=$$(grep -E '^  (filter-scan|merge-join) ' .multiquery-2.txt); \
	test "$$(echo "$$a" | wc -l)" = 2 && test "$$a" = "$$b" || \
		{ echo "examples-smoke: multiquery summaries differ between runs:"; echo "$$a"; echo "$$b"; exit 1; }
	@echo "examples-smoke: OK"

# End-to-end smoke of the monitoring server binary: start lqsd on a local
# port at its default poll interval, submit one query over HTTP, wait for
# it to succeed, require its flight recorder to hold frames and its LQS
# accuracy to grade polls, submit a second
# on the same (workload, seed) — which must be served from the table cache —
# scrape /metrics and require the query-progress family, delete the first
# query (204) and require it gone (404), then shut the server down cleanly
# (SIGTERM exercises the graceful-drain path).
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
	curl -sf http://127.0.0.1:18321/queries/1/history | grep -q '"at_us":' || { echo "serve-smoke: /queries/1/history has no frame at the default poll interval"; exit 1; }; \
	curl -sf http://127.0.0.1:18321/metrics | grep '^lqs_query_accuracy_polls{mode="LQS",qid="1",' | awk '$$NF > 0 { ok = 1 } END { exit !ok }' || { echo "serve-smoke: LQS accuracy graded no polls of query 1"; exit 1; }; \
	curl -sf -X POST http://127.0.0.1:18321/queries -d '{"workload":"tpch","query":"Q1","tenant":"smoke"}' | grep -q '"id":2' || { echo "serve-smoke: second submit failed"; exit 1; }; \
	curl -sf http://127.0.0.1:18321/metrics | grep -q '^server_table_cache_hits 1$$' || { echo "serve-smoke: second query on the same (workload, seed) missed the table cache"; exit 1; }; \
	curl -sf http://127.0.0.1:18321/metrics | grep -q '^lqs_query_progress{.*tenant="smoke"' || { echo "serve-smoke: /metrics missing lqs_query_progress"; exit 1; }; \
	curl -sf http://127.0.0.1:18321/metrics | grep -q '^lqs_buffer_manager_page_hits_total{' || { echo "serve-smoke: /metrics missing buffer-manager family"; exit 1; }; \
	test "$$(curl -s -o /dev/null -w '%{http_code}' -X DELETE http://127.0.0.1:18321/queries/1)" = 204 || { echo "serve-smoke: DELETE of finished query 1 did not answer 204"; exit 1; }; \
	test "$$(curl -s -o /dev/null -w '%{http_code}' http://127.0.0.1:18321/queries/1)" = 404 || { echo "serve-smoke: query 1 still answers after its DELETE"; exit 1; }; \
	kill -TERM $$pid; wait $$pid || { echo "serve-smoke: lqsd did not drain cleanly"; exit 1; }; \
	echo "serve-smoke: OK"

# Estimator-accuracy trajectory artifact: replay the quick suite through
# every estimator mode (TGN/DNE/LQS/ENS) against the ground-truth oracle and
# commit the per-query error metrics. Deterministic: the same seed yields
# a byte-identical file. Exits non-zero if any mode breaches its pinned
# error ceiling. Override the label per PR: `make acc-json ACC_LABEL=pr10`.
ACC_LABEL ?= pr10
acc-json:
	$(GO) run ./cmd/lqsbench accuracy -label $(ACC_LABEL) -json ACC_$(ACC_LABEL).json

# Quick accuracy gate for CI: same suite, artifact to a scratch file, plus
# the in-tree threshold test (the per-mode ceilings also run under plain
# `make test` via TestQuickSuiteWithinCeilings).
acc-smoke:
	$(GO) run ./cmd/lqsbench accuracy -label ci -json .acc-smoke.json
	@rm -f .acc-smoke.json && echo "acc-smoke: OK"

# The repo benchmark (bench/, driven by BENCHMARK.json) is a module of its
# own that imports internal/ through a replace directive, so `go build
# ./...` and `go test ./...` above never compile it. Vet it and run its
# short tests here, so an internal/ API change that breaks it fails CI
# rather than the next benchmark run. TestTraced (skipped under -short)
# runs one traced run and requires the whole per-layer probe set, so a
# probe that stops printing fails here too.
bench-check:
	cd bench && $(GO) vet . && $(GO) test -short .
	cd bench && $(GO) test -run 'TestTraced$$' .

# Run each database-build benchmark so they cannot rot, with -benchmem so
# the log shows a rise in build allocations; the numbers that matter are
# taken with -benchtime 5x -count 3 (see CHANGES.md). Each has a /heaps
# half (the tables generated, as a generator returns the database) and an
# /all half (every index and every column's statistics then built too, as
# first use builds them). -cpu 1,2 puts the serial generation (run inline
# on one worker) beside the parallel one. It is 2x, not 1x: at 1x the testing package reports its
# one-iteration probe run, which it makes before it sets GOMAXPROCS to the
# first -cpu value, so the "serial" line would time the parallel build.
bench-build:
	$(GO) test ./internal/workload -run '^$$' -bench Build -benchtime 2x -benchmem -cpu 1,2

# Run the replay benchmarks once per estimator mode so they cannot rot,
# with -benchmem so the log shows ns/op and allocs/op of the replay hot
# path (accuracy.Record over the committed trace corpus, and Explain on
# every eighth poll of it in LQS and ENS; no engine run).
bench-replay:
	$(GO) test ./internal/accuracy -run '^$$' -bench 'Record|Explain' -benchtime 1x -benchmem

ci: vet sort-guard build test race trace-smoke examples-smoke fuzz-smoke chaos-smoke serve-smoke acc-smoke bench-check bench-build bench-replay

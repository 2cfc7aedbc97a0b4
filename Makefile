# Development targets. `make check` is what CI runs on every push;
# `make bench-json` backs the per-commit BENCH_*.json artifacts and
# `make bench-diff` gates a fresh emission against the committed ones.

.PHONY: check build vet test race determinism lint lint-json fmt-check fuzz perfbench-check bench bench-json bench-diff

build:
	go build ./...

vet:
	go vet ./...

test:
	go test ./...

# The race detector guards the concurrency contract (see DESIGN.md §7):
# inference through shared models must be stateless.
race:
	go test -race ./...

# The determinism contract must hold whether shards run inline or truly
# in parallel: the whole module runs single-threaded and multi-core. Each
# test runs twice in one process, so this also keeps tests that read
# process-global state re-runnable.
determinism:
	go test -cpu 1,4 -count=1 ./...

# prodigy-lint turns the repo's prose contracts into machine-checked ones
# (DESIGN.md §9, §14): stateless inference, bounded metric labels, seeded
# randomness, no float equality in the numeric core, joined bounded
# goroutines, lock-guarded fields, deterministic iteration order, no code
# that no entry point reaches.
lint:
	go run ./cmd/prodigy-lint

# Machine-readable lint report (one JSON record per diagnostic, suppressed
# ones included) into lint-out/ — what CI uploads as an artifact so the
# suppression inventory is auditable per commit. Exit status still gates
# on unsuppressed findings.
lint-json:
	mkdir -p $(CURDIR)/lint-out
	go run ./cmd/prodigy-lint -format=json > $(CURDIR)/lint-out/lint.json

# gofmt cleanliness gate: fails listing any file gofmt would rewrite.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Fuzz smoke: a short randomized pass over the untrusted-input parsers
# (score request JSON, metric label values) on every invocation.
fuzz:
	go test ./internal/server/ -run '^$$' -fuzz FuzzDecodeScoreRequest -fuzztime 10s
	go test ./internal/obs/ -run '^$$' -fuzz FuzzSeriesLabels -fuzztime 10s

# perfbench/ is a nested module, so `go build ./...` never compiles it,
# though it imports core, mat, serve and server: vet and test it on its
# own so an API change cannot break the benchmark unseen.
perfbench-check:
	cd perfbench && go vet ./... && go test ./...

check: build vet fmt-check lint race determinism perfbench-check

# Full benchmark sweep after re-baselining every snapshot (bench-json).
# CI runs bench-diff instead; the sweep is the laptop workflow.
bench: bench-json
	go test -bench=. -benchmem -run=^$$ ./...

# Benchmark snapshots — the perf trajectory tracked across PRs (see
# DESIGN.md §8). One test emits every BENCH_*.json in the registry of
# bench_json_test.go, checks the gates declared there and diffs each file
# against its committed baseline: >10% ns/op slower warns, >25% fails.
# bench-json re-baselines in place (deltas printed, only gates fail);
# -run 'TestBenchJSON/serving' refreshes one file. CI runs bench-diff.
bench-json:
	BENCH_OUT=$(CURDIR) go test -v -run '^TestBenchJSON$$' -count=1 .

bench-diff:
	BENCH_OUT=$(CURDIR)/bench-out go test -v -run '^TestBenchJSON$$' -count=1 .

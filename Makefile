# Development targets. `make check` is what CI runs on every push;
# `make bench-json` backs the per-commit BENCH_*.json artifacts and
# `make bench-diff` gates a fresh emission against the committed ones.

.PHONY: check build vet test race lint lint-json fmt-check fuzz perfbench-check bench bench-json bench-train bench-features bench-serving bench-ensemble bench-diff

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

# prodigy-lint turns the repo's prose contracts into machine-checked ones
# (DESIGN.md §9, §14): stateless inference, bounded metric labels, seeded
# randomness, no float equality in the numeric core, joined bounded
# goroutines, lock-guarded fields, deterministic iteration order.
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

check: build vet fmt-check lint race perfbench-check

# Full benchmark sweep plus the scoring snapshot (bench-json). CI runs
# only bench-json; the sweep is the laptop workflow.
bench: bench-json
	go test -bench=. -benchmem -run=^$$ ./...

# Benchmark snapshots — the perf trajectory tracked across PRs (see
# DESIGN.md §8): scoring paths, raw mat kernels, training loops, the
# feature extractor, and the coalescing serving tier. Each emitter is
# one gated test so a single file can be refreshed alone.
bench-json:
	BENCH_JSON=$(CURDIR)/BENCH_scoring.json go test -run '^TestEmitScoringBenchJSON$$' -count=1 .
	BENCH_MATMUL_JSON=$(CURDIR)/BENCH_matmul.json go test -run '^TestEmitMatmulBenchJSON$$' -count=1 .
	BENCH_TRAIN_JSON=$(CURDIR)/BENCH_train.json go test -run '^TestEmitTrainBenchJSON$$' -count=1 .
	BENCH_FEATURES_JSON=$(CURDIR)/BENCH_features.json go test -run '^TestEmitFeaturesBenchJSON$$' -count=1 .
	BENCH_SERVING_JSON=$(CURDIR)/BENCH_serving.json go test -run '^TestEmitServingBenchJSON$$' -count=1 .
	BENCH_ENSEMBLE_JSON=$(CURDIR)/BENCH_ensemble.json go test -run '^TestEmitEnsembleBenchJSON$$' -count=1 -timeout 30m .

# Refresh only the training-loop snapshot (W1 + W8 fan-outs) — the file
# the data-parallel training work of DESIGN.md §11 reports against.
bench-train:
	BENCH_TRAIN_JSON=$(CURDIR)/BENCH_train.json go test -run '^TestEmitTrainBenchJSON$$' -count=1 .

# Refresh only the feature-extraction snapshot — the file the zero-alloc
# extraction work of DESIGN.md §12 reports against.
bench-features:
	BENCH_FEATURES_JSON=$(CURDIR)/BENCH_features.json go test -run '^TestEmitFeaturesBenchJSON$$' -count=1 .

# Refresh only the serving-tier snapshot — closed-loop coalescing
# benchmarks plus the open-loop/saturation sweep of DESIGN.md §15. The
# emitter also enforces the tier's acceptance bounds (≥5× coalescing
# speedup, shed-not-latency under overload).
bench-serving:
	BENCH_SERVING_JSON=$(CURDIR)/BENCH_serving.json go test -run '^TestEmitServingBenchJSON$$' -count=1 .

# Refresh only the cascade-ensemble snapshot — cascade vs
# full-fleet-every-row vs solo VAE on a ≥95%-normal stream, plus the
# fused-vs-solo F1/AUC table (DESIGN.md §16). The emitter enforces the
# cascade's acceptance bounds (≥3× over full fleet, quality within 0.01
# of solo), and the eval half trains real campaigns, hence the timeout.
bench-ensemble:
	BENCH_ENSEMBLE_JSON=$(CURDIR)/BENCH_ensemble.json go test -run '^TestEmitEnsembleBenchJSON$$' -count=1 -timeout 30m .

# Fresh emission into bench-out/, diffed against the committed baselines:
# >10% ns/op slowdown warns, >25% fails (cmd/benchdiff). CI's bench job
# runs exactly this.
bench-diff:
	mkdir -p $(CURDIR)/bench-out
	BENCH_JSON=$(CURDIR)/bench-out/BENCH_scoring.json go test -run '^TestEmitScoringBenchJSON$$' -count=1 .
	BENCH_MATMUL_JSON=$(CURDIR)/bench-out/BENCH_matmul.json go test -run '^TestEmitMatmulBenchJSON$$' -count=1 .
	BENCH_TRAIN_JSON=$(CURDIR)/bench-out/BENCH_train.json go test -run '^TestEmitTrainBenchJSON$$' -count=1 .
	BENCH_FEATURES_JSON=$(CURDIR)/bench-out/BENCH_features.json go test -run '^TestEmitFeaturesBenchJSON$$' -count=1 .
	BENCH_SERVING_JSON=$(CURDIR)/bench-out/BENCH_serving.json go test -run '^TestEmitServingBenchJSON$$' -count=1 .
	BENCH_ENSEMBLE_JSON=$(CURDIR)/bench-out/BENCH_ensemble.json go test -run '^TestEmitEnsembleBenchJSON$$' -count=1 -timeout 30m .
	go run ./cmd/benchdiff -baseline BENCH_scoring.json -current bench-out/BENCH_scoring.json
	go run ./cmd/benchdiff -baseline BENCH_matmul.json -current bench-out/BENCH_matmul.json
	go run ./cmd/benchdiff -baseline BENCH_train.json -current bench-out/BENCH_train.json
	go run ./cmd/benchdiff -baseline BENCH_features.json -current bench-out/BENCH_features.json
	go run ./cmd/benchdiff -baseline BENCH_serving.json -current bench-out/BENCH_serving.json
	go run ./cmd/benchdiff -baseline BENCH_ensemble.json -current bench-out/BENCH_ensemble.json

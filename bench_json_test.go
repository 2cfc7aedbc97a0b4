package prodigy

import (
	"encoding/json"
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	"prodigy/internal/nn"
)

// BENCH_*.json emitters: `make bench-json` (and CI's bench job) sets
// BENCH_JSON / BENCH_MATMUL_JSON / BENCH_TRAIN_JSON and runs these
// tests, which re-run the named benchmarks through testing.Benchmark and
// write one machine-readable snapshot per commit. Appending these
// artifacts across PRs is the perf trajectory every future optimisation
// reports against: the scoring file tracks serving throughput, the
// matmul file the raw kernels, the train file the fit loops —
// cmd/benchdiff compares two snapshots and gates CI on regressions.

type benchEntry struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// SamplesPerSec is the samples/s custom metric, when the benchmark
	// reports one.
	SamplesPerSec float64 `json:"samples_per_s,omitempty"`
	// Open-loop saturation entries (BENCH_serving.json) carry latency
	// quantiles and shed behavior instead of ns/op; they set NsPerOp to 0
	// so benchdiff reports them without gating — open-loop tails are too
	// machine-sensitive for a ±25% gate.
	OfferedRPS  float64 `json:"offered_rows_per_s,omitempty"`
	P50Ns       float64 `json:"p50_ns,omitempty"`
	P99Ns       float64 `json:"p99_ns,omitempty"`
	ClientP99Ns float64 `json:"client_p99_ns,omitempty"`
	ShedFrac    float64 `json:"shed_frac,omitempty"`
	// Cascade-ensemble entries (BENCH_ensemble.json): the observed
	// pre-filter pass rate on the benchmark stream, and — on the
	// informational NsPerOp=0 eval entries — the detection-quality table
	// the throughput win is conditioned on.
	PrefilterPassFrac float64 `json:"prefilter_pass_frac,omitempty"`
	F1                float64 `json:"f1,omitempty"`
	AUC               float64 `json:"auc,omitempty"`
}

type benchReport struct {
	GeneratedUnix int64  `json:"generated_unix"`
	GoVersion     string `json:"go_version"`
	GOOS          string `json:"goos"`
	GOARCH        string `json:"goarch"`
	// CPUs (runtime.NumCPU) and GOMAXPROCS describe the machine the
	// numbers came from; cmd/benchdiff warns when two snapshots disagree,
	// since parallel-path results do not transfer across core counts.
	CPUs       int `json:"cpus"`
	GOMAXPROCS int `json:"gomaxprocs"`
	// TrainWorkers is the default data-parallel fan-out a zero-valued
	// nn.TrainConfig resolves to on this machine (DESIGN.md §11); the W8
	// train benchmarks pin their own count regardless.
	TrainWorkers int          `json:"train_workers"`
	Benchmarks   []benchEntry `json:"benchmarks"`
}

// namedBench pairs an artifact entry name with the benchmark that
// produces it.
type namedBench struct {
	name string
	fn   func(*testing.B)
}

// emitBenchJSON runs each benchmark with allocation tracking and writes
// the report to path.
func emitBenchJSON(t *testing.T, path string, benches []namedBench) {
	t.Helper()
	report := benchReport{
		GeneratedUnix: time.Now().Unix(),
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		CPUs:          runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		TrainWorkers:  nn.TrainConfig{}.EffectiveWorkers(),
	}
	for _, b := range benches {
		fn := b.fn
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			fn(b)
		})
		if res.N == 0 {
			t.Fatalf("benchmark %s did not run", b.name)
		}
		entry := benchEntry{
			Name:        b.name,
			Iterations:  res.N,
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
		}
		if v, ok := res.Extra["samples/s"]; ok {
			entry.SamplesPerSec = v
		}
		report.Benchmarks = append(report.Benchmarks, entry)
		t.Logf("%s: %.0f ns/op, %d allocs/op (%d iters)", b.name, entry.NsPerOp, entry.AllocsPerOp, entry.Iterations)
	}
	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", path)
}

// TestEmitScoringBenchJSON is skipped unless BENCH_JSON names an output
// path, so `go test ./...` stays fast.
func TestEmitScoringBenchJSON(t *testing.T) {
	path := os.Getenv("BENCH_JSON")
	if path == "" {
		t.Skip("set BENCH_JSON=<path> to emit the scoring benchmark JSON")
	}
	emitBenchJSON(t, path, []namedBench{
		// The parallel, allocation-free scoring hot paths — the surfaces
		// an instrumentation or perf change can regress. The end-to-end
		// dashboard request and feature extraction live in
		// BENCH_features.json.
		{"VAEInference", BenchmarkVAEInference},
		{"BatchScoresParallel", BenchmarkBatchScoresParallel},
		// The same serving batch with model-health instrumentation on and
		// off: the pair proves the sketch/ledger/counter layer stays under
		// its 5% overhead budget (DESIGN.md §13).
		{"ScoringInstrumented", BenchmarkScoringInstrumented},
		{"ScoringUninstrumented", BenchmarkScoringUninstrumented},
	})
	verifyInstrumentationOverhead(t, path)
}

// verifyInstrumentationOverhead enforces the <5% instrumentation budget on
// the snapshot just written. A single testing.Benchmark sample can jitter
// past the budget on a loaded machine, so an apparent violation is retaken
// best-of-three before failing.
func verifyInstrumentationOverhead(t *testing.T, path string) {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep benchReport
	if err := json.Unmarshal(blob, &rep); err != nil {
		t.Fatal(err)
	}
	var on, off float64
	for _, e := range rep.Benchmarks {
		switch e.Name {
		case "ScoringInstrumented":
			on = e.NsPerOp
		case "ScoringUninstrumented":
			off = e.NsPerOp
		}
	}
	if on == 0 || off == 0 {
		t.Fatal("scoring snapshot missing the instrumented/uninstrumented pair")
	}
	overhead := on/off - 1
	if overhead > 0.05 {
		on = bestNsPerOp(3, BenchmarkScoringInstrumented)
		off = bestNsPerOp(3, BenchmarkScoringUninstrumented)
		overhead = on/off - 1
	}
	t.Logf("instrumentation overhead: %+.2f%% (%.0f vs %.0f ns/op)", 100*overhead, on, off)
	if overhead > 0.05 {
		t.Errorf("instrumentation overhead %.2f%% exceeds the 5%% budget (DESIGN.md §13)", 100*overhead)
	}
}

// bestNsPerOp reruns a benchmark n times and keeps the fastest run —
// noise only ever slows a run down.
func bestNsPerOp(n int, fn func(*testing.B)) float64 {
	best := math.Inf(1)
	for i := 0; i < n; i++ {
		res := testing.Benchmark(fn)
		if res.N == 0 {
			continue
		}
		if ns := float64(res.T.Nanoseconds()) / float64(res.N); ns < best {
			best = ns
		}
	}
	return best
}

// TestEmitFeaturesBenchJSON (BENCH_FEATURES_JSON) snapshots the feature
// extraction stage: the steady-state full-catalog Into path the dataset
// builder runs per sample, the allocating convenience wrapper, the
// offline dataset build that fans extraction across samples, and the
// per-job analysis whose extraction the deployed selection prunes.
func TestEmitFeaturesBenchJSON(t *testing.T) {
	path := os.Getenv("BENCH_FEATURES_JSON")
	if path == "" {
		t.Skip("set BENCH_FEATURES_JSON=<path> to emit the features benchmark JSON")
	}
	emitBenchJSON(t, path, []namedBench{
		{"FeatureExtraction", BenchmarkFeatureExtraction},
		{"FeatureExtractionNamed", BenchmarkFeatureExtractionNamed},
		{"DatasetBuild", BenchmarkDatasetBuild},
		{"EndToEndDetection", BenchmarkEndToEndDetection},
	})
}

// TestEmitMatmulBenchJSON (BENCH_MATMUL_JSON) snapshots the mat kernels:
// the destination-passing matmuls at two sizes, the transposed forms and
// the fused dense kernel.
func TestEmitMatmulBenchJSON(t *testing.T) {
	path := os.Getenv("BENCH_MATMUL_JSON")
	if path == "" {
		t.Skip("set BENCH_MATMUL_JSON=<path> to emit the matmul benchmark JSON")
	}
	emitBenchJSON(t, path, []namedBench{
		{"MatMulInto128", BenchmarkKernelMatMulInto128},
		{"MatMulInto256", BenchmarkKernelMatMulInto256},
		{"MatMulTInto128", BenchmarkKernelMatMulTInto128},
		{"TMatMulInto128", BenchmarkKernelTMatMulInto128},
		{"MatMulBiasInto", BenchmarkKernelMatMulBiasInto},
	})
}

// TestEmitTrainBenchJSON (BENCH_TRAIN_JSON) snapshots the training loops:
// the single-worker numbers track the kernel and backward-pass work, the
// W8 variants add the data-parallel fan-out of DESIGN.md §11 (which only
// pays off with real cores — on a single-CPU runner they measure the
// sharding overhead instead).
func TestEmitTrainBenchJSON(t *testing.T) {
	path := os.Getenv("BENCH_TRAIN_JSON")
	if path == "" {
		t.Skip("set BENCH_TRAIN_JSON=<path> to emit the training benchmark JSON")
	}
	emitBenchJSON(t, path, []namedBench{
		{"MLPTrainEpoch", BenchmarkMLPTrainEpoch},
		{"VAETrainEpoch", BenchmarkVAETrainEpoch},
		{"USADTrainEpoch", BenchmarkUSADTrainEpoch},
		{"MLPTrainEpochW8", BenchmarkMLPTrainEpochW8},
		{"VAETrainEpochW8", BenchmarkVAETrainEpochW8},
		{"USADTrainEpochW8", BenchmarkUSADTrainEpochW8},
	})
}

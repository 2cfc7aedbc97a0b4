package prodigy

import (
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"prodigy/internal/nn"
)

// BENCH_*.json snapshots are the perf trajectory every optimisation
// reports against (DESIGN.md §8). benchFiles is their one registry: a
// row per committed file, naming the entries it records and the
// acceptance gates declared on them. TestBenchJSON runs a subtest per
// row when BENCH_OUT names an output directory:
//
//	BENCH_OUT=bench-out go test -v -run '^TestBenchJSON$' .       # every file
//	BENCH_OUT=. go test -v -run '^TestBenchJSON/serving$' .       # re-baseline one
//
// Each subtest writes BENCH_<name>.json into BENCH_OUT, evaluates the
// row's gates and diffs the file against the committed baseline at the
// repo root (diffBench). When BENCH_OUT is the repo root the run is a
// re-baseline: it prints deltas against the file it replaces and fails
// only on gates.

// benchEntry is one recorded benchmark. Closed-loop entries carry
// ns_per_op, allocs_per_op, bytes_per_op, iterations and every
// b.ReportMetric unit; open-loop and evaluation entries carry their own
// keys (p99_ns, shed_frac, f1, ...).
type benchEntry struct {
	Name    string             `json:"name"`
	Metrics map[string]float64 `json:"metrics"`
}

type benchReport struct {
	GeneratedUnix int64  `json:"generated_unix"`
	GoVersion     string `json:"go_version"`
	GOOS          string `json:"goos"`
	GOARCH        string `json:"goarch"`
	// CPUs (runtime.NumCPU) and GOMAXPROCS describe the machine the
	// numbers came from; diffBench warns when two snapshots disagree,
	// since parallel-path results do not transfer across core counts.
	CPUs       int `json:"cpus"`
	GOMAXPROCS int `json:"gomaxprocs"`
	// TrainWorkers is the default data-parallel fan-out nn.EffectiveWorkers
	// resolves to on this machine (DESIGN.md §11); the W8
	// train benchmarks pin their own count regardless.
	TrainWorkers int          `json:"train_workers"`
	Benchmarks   []benchEntry `json:"benchmarks"`
}

const (
	nsPerOp     = "ns_per_op"
	allocsPerOp = "allocs_per_op"
)

// benchMetrics maps entry name to its metrics.
type benchMetrics map[string]map[string]float64

// at reads one metric. One that no entry records reads NaN, which no
// gate bound admits.
func (m benchMetrics) at(entry, metric string) float64 {
	if v, ok := m[entry][metric]; ok {
		return v
	}
	return math.NaN()
}

// namedBench pairs an entry name with the benchmark that produces it.
type namedBench struct {
	name string
	fn   func(*testing.B)
}

// benchFile is one registry row: BENCH_<name>.json.
type benchFile struct {
	name string
	// benches are closed-loop, each run once through testing.Benchmark.
	benches []namedBench
	// extra names, in order, the entries measure records: open-loop load
	// points and evaluation tables, which testing.Benchmark cannot take.
	extra   []string
	measure func(*testing.T) benchMetrics
	gates   []benchGate
}

// benchGate is an acceptance bound declared on a row's entries.
type benchGate struct {
	name string
	// check returns the measured quantity for the log and whether the
	// bound holds.
	check func(benchMetrics) (got string, ok bool)
	// retake names the closed-loop benchmarks a gate compares by ns/op.
	// One testing.Benchmark sample jitters on a loaded host, so a miss is
	// retaken (retakeNsPerOp) before it fails.
	retake []string
}

var benchFiles = []benchFile{
	{
		name: "scoring",
		// The parallel, allocation-free scoring hot paths, and the same
		// serving batch with model-health instrumentation on and off: the
		// pair holds the sketch/ledger/counter layer to its 5% budget
		// (DESIGN.md §13).
		benches: []namedBench{
			{"VAEInference", BenchmarkVAEInference},
			{"BatchScoresParallel", BenchmarkBatchScoresParallel},
			{"ScoringInstrumented", BenchmarkScoringInstrumented},
			{"ScoringUninstrumented", BenchmarkScoringUninstrumented},
		},
		gates: []benchGate{{
			name:   "instrumentation overhead ≤ 5%",
			retake: []string{"ScoringInstrumented", "ScoringUninstrumented"},
			check: func(m benchMetrics) (string, bool) {
				on, off := m.at("ScoringInstrumented", nsPerOp), m.at("ScoringUninstrumented", nsPerOp)
				return fmt.Sprintf("%+.2f%% (%.0f vs %.0f ns/op)", 100*(on/off-1), on, off), on <= 1.05*off
			},
		}},
	},
	{
		name: "matmul",
		benches: []namedBench{
			{"MatMulInto128", BenchmarkKernelMatMulInto128},
			{"MatMulInto256", BenchmarkKernelMatMulInto256},
			{"MatMulTInto128", BenchmarkKernelMatMulTInto128},
			{"TMatMulInto128", BenchmarkKernelTMatMulInto128},
			{"MatMulBiasInto", BenchmarkKernelMatMulBiasInto},
		},
	},
	{
		name: "train",
		// The W8 variants add the data-parallel fan-out of DESIGN.md §11,
		// which only pays off with real cores.
		benches: []namedBench{
			{"VAETrainEpoch", BenchmarkVAETrainEpoch},
			{"USADTrainEpoch", BenchmarkUSADTrainEpoch},
			{"VAETrainEpochW8", BenchmarkVAETrainEpochW8},
			{"USADTrainEpochW8", BenchmarkUSADTrainEpochW8},
		},
	},
	{
		name: "features",
		// Extraction per sample, the offline dataset build that fans it
		// across samples, and the per-job analysis end to end.
		benches: []namedBench{
			{"FeatureExtraction", BenchmarkFeatureExtraction},
			{"FeatureExtractionNamed", BenchmarkFeatureExtractionNamed},
			{"DatasetBuild", BenchmarkDatasetBuild},
			{"EndToEndDetection", BenchmarkEndToEndDetection},
		},
	},
	{
		name: "serving",
		benches: []namedBench{
			{"ServeDirectSingleRow", BenchmarkServeDirectSingleRow},
			{"ServeSingleConn", BenchmarkServeSingleConn},
			{"ServeCoalesced64", BenchmarkServeCoalesced64},
			{"ServeWideRow", BenchmarkServeWideRow},
		},
		extra:   []string{"ServeOpenLoopHalf", "ServeOpenLoop1x", "ServeSaturated"},
		measure: measureServingLoad,
		gates: []benchGate{{
			name: "coalesced ≥ 5× single-connection samples/s",
			check: func(m benchMetrics) (string, bool) {
				coal, single := m.at("ServeCoalesced64", "samples/s"), m.at("ServeSingleConn", "samples/s")
				return fmt.Sprintf("%.1f× (%.0f vs %.0f samples/s)", coal/single, coal, single), coal >= 5*single
			},
		}, {
			name: "saturated demand ≥ 2× the scoring ceiling",
			check: func(m benchMetrics) (string, bool) {
				offered, ceiling := m.at("ServeSaturated", "offered_rows_per_s"), m.at("ServeSaturated", "ceiling_rows_per_s")
				return fmt.Sprintf("%.1f× (%.0f vs %.0f rows/s)", offered/ceiling, offered, ceiling), offered >= 2*ceiling
			},
		}, {
			name: "sheds under saturating demand",
			check: func(m benchMetrics) (string, bool) {
				shed := m.at("ServeSaturated", "shed_frac")
				return fmt.Sprintf("shed %.1f%%", 100*shed), shed > 0
			},
		}, {
			// Shed the request, not the tail latency: the deadline check
			// at the flush boundary turns overload into sheds instead of
			// unbounded queueing delay.
			name: "tier-wait p99 ≤ deadline+window under overload",
			check: func(m benchMetrics) (string, bool) {
				cfg := saturatedTierConfig()
				p99, limit := m.at("ServeSaturated", "p99_ns"), float64(cfg.Deadline+cfg.Window)
				return fmt.Sprintf("%v vs %v", time.Duration(p99), time.Duration(limit)), p99 <= limit
			},
		}},
	},
	{
		name: "ensemble",
		benches: []namedBench{
			{"CascadeScoring", BenchmarkCascadeScoring},
			{"FullFleetScoring", BenchmarkFullFleetScoring},
			{"SoloVAEScoring", BenchmarkSoloVAEScoring},
		},
		extra: []string{
			"EnsembleEval/eclipse/prodigy-vae", "EnsembleEval/eclipse/cascade-rank",
			"EnsembleEval/volta/prodigy-vae", "EnsembleEval/volta/cascade-rank",
		},
		measure: measureEnsembleEval,
		gates: []benchGate{{
			name:   "cascade ≥ 3× full-fleet throughput",
			retake: []string{"CascadeScoring", "FullFleetScoring"},
			check: func(m benchMetrics) (string, bool) {
				cascade, fleet := m.at("CascadeScoring", nsPerOp), m.at("FullFleetScoring", nsPerOp)
				return fmt.Sprintf("%.1f× (%.0f vs %.0f ns/op)", fleet/cascade, cascade, fleet), fleet >= 3*cascade
			},
		}, fusedQualityGate("eclipse"), fusedQualityGate("volta")},
	},
}

func (f benchFile) path() string { return "BENCH_" + f.name + ".json" }

// names lists the row's entries in the order the file records them.
func (f benchFile) names() []string {
	names := make([]string, 0, len(f.benches)+len(f.extra))
	for _, nb := range f.benches {
		names = append(names, nb.name)
	}
	return append(names, f.extra...)
}

// bench returns the closed-loop benchmark registered under name, or nil.
func (f benchFile) bench(name string) func(*testing.B) {
	for _, nb := range f.benches {
		if nb.name == name {
			return nb.fn
		}
	}
	return nil
}

// TestBenchJSON is skipped unless BENCH_OUT names an output directory,
// so `go test ./...` stays fast.
func TestBenchJSON(t *testing.T) {
	out := os.Getenv("BENCH_OUT")
	if out == "" {
		t.Skip("set BENCH_OUT=<dir> to emit the BENCH_*.json snapshots")
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		t.Fatal(err)
	}
	outInfo, err := os.Stat(out)
	if err != nil {
		t.Fatal(err)
	}
	rootInfo, err := os.Stat(".")
	if err != nil {
		t.Fatal(err)
	}
	rebaseline := os.SameFile(outInfo, rootInfo)
	for _, f := range benchFiles {
		t.Run(f.name, func(t *testing.T) { emitBenchFile(t, f, out, rebaseline) })
	}
}

// emitBenchFile runs one row, writes its file into out, evaluates its
// gates and diffs it against the committed baseline.
func emitBenchFile(t *testing.T, f benchFile, out string, rebaseline bool) {
	// Read before a re-baseline overwrites it.
	base, baseErr := loadBenchReport(f.path())
	m := benchMetrics{}
	for _, nb := range f.benches {
		m[nb.name] = runClosedLoop(t, nb)
	}
	if f.measure != nil {
		maps.Copy(m, f.measure(t))
	}
	report := benchReport{
		GeneratedUnix: time.Now().Unix(),
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		CPUs:          runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		TrainWorkers:  nn.EffectiveWorkers(0),
	}
	for _, name := range f.names() {
		metrics, ok := m[name]
		if !ok {
			t.Fatalf("no entry recorded for %s", name)
		}
		report.Benchmarks = append(report.Benchmarks, benchEntry{Name: name, Metrics: metrics})
	}
	if len(m) != len(report.Benchmarks) {
		t.Fatalf("recorded %d entries, the registry names %d", len(m), len(report.Benchmarks))
	}
	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(out, f.path())
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", path)

	checkGates(t, f, m)

	if baseErr != nil {
		t.Logf("no baseline to diff against: %v", baseErr)
		return
	}
	annotate := os.Getenv("GITHUB_ACTIONS") == "true"
	for _, fd := range diffBench(base, &report) {
		if fd.level == "error" && rebaseline {
			fd.level = "warning"
		}
		switch {
		case fd.level == "":
			fmt.Println(fd.msg)
		case annotate:
			fmt.Printf("::%s::%s\n", fd.level, fd.msg)
		default:
			fmt.Printf("%s: %s\n", fd.level, fd.msg)
		}
		if fd.level == "error" {
			t.Fail()
		}
	}
}

// runClosedLoop runs one benchmark with allocation tracking.
func runClosedLoop(t *testing.T, nb namedBench) map[string]float64 {
	t.Helper()
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		nb.fn(b)
	})
	if res.N == 0 {
		t.Fatalf("benchmark %s did not run", nb.name)
	}
	m := map[string]float64{
		"iterations":   float64(res.N),
		nsPerOp:        float64(res.T.Nanoseconds()) / float64(res.N),
		allocsPerOp:    float64(res.AllocsPerOp()),
		"bytes_per_op": float64(res.AllocedBytesPerOp()),
	}
	maps.Copy(m, res.Extra)
	t.Logf("%s: %.0f ns/op, %d allocs/op (%d iters)", nb.name, m[nsPerOp], res.AllocsPerOp(), res.N)
	return m
}

// checkGates evaluates every gate of f on m; a miss on a gate with a
// retake is decided by the retaken numbers.
func checkGates(t *testing.T, f benchFile, m benchMetrics) {
	t.Helper()
	for _, g := range f.gates {
		got, ok := g.check(m)
		if !ok && len(g.retake) > 0 {
			t.Logf("gate %q: %s on the first sample; retaking %v", g.name, got, g.retake)
			retaken := maps.Clone(m)
			maps.Copy(retaken, retakeNsPerOp(f, g.retake))
			got, ok = g.check(retaken)
		}
		if ok {
			t.Logf("gate %q: %s", g.name, got)
		} else {
			t.Errorf("gate %q missed: %s", g.name, got)
		}
	}
}

// retakeNsPerOp reruns the named benchmarks three rounds, interleaved
// (A,B,A,B,A,B), and keeps each one's fastest ns/op: noise only ever
// slows a run down, and interleaving spreads a slow phase of the host
// over every side instead of landing it on one.
func retakeNsPerOp(f benchFile, names []string) benchMetrics {
	best := benchMetrics{}
	for round := 0; round < 3; round++ {
		for _, name := range names {
			res := testing.Benchmark(f.bench(name))
			if res.N == 0 {
				continue
			}
			ns := float64(res.T.Nanoseconds()) / float64(res.N)
			if prev, ok := best[name][nsPerOp]; !ok || ns < prev {
				best[name] = map[string]float64{nsPerOp: ns}
			}
		}
	}
	return best
}

func loadBenchReport(path string) (*benchReport, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r benchReport
	if err := json.Unmarshal(blob, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// ns/op slowdowns past which diffBench warns and fails.
const (
	benchWarnPct = 10
	benchFailPct = 25
)

// benchFinding is one line of a snapshot comparison. level is "" for a
// plain report line, "warning" or "error".
type benchFinding struct {
	level string
	msg   string
}

// diffBench compares a fresh snapshot with its baseline. Per entry that
// records ns_per_op on both sides it reports the delta: a slowdown past
// benchWarnPct warns, past benchFailPct fails — unless the CPU counts
// differ, which makes deltas apples-to-oranges (notably for the W8
// data-parallel benchmarks), so it only warns. An allocs/op increase
// always warns: the zero-allocation contract is pinned exactly by
// testing.AllocsPerRun tests, here a drift only needs visibility.
// Entries without ns_per_op (open-loop tails, detection quality) are
// informational, and an entry on only one side is listed but never
// fails, so adding or renaming benchmarks doesn't wedge CI.
func diffBench(base, cur *benchReport) []benchFinding {
	var out []benchFinding
	add := func(level, format string, args ...interface{}) {
		out = append(out, benchFinding{level, fmt.Sprintf(format, args...)})
	}
	likeForLike := base.CPUs == cur.CPUs
	if !likeForLike {
		add("warning", "baseline ran on %d CPUs, current on %d: deltas are not like-for-like, regressions downgraded to warnings", base.CPUs, cur.CPUs)
	}
	if base.GOMAXPROCS != 0 && cur.GOMAXPROCS != 0 && base.GOMAXPROCS != cur.GOMAXPROCS {
		add("warning", "baseline ran with GOMAXPROCS=%d, current with %d", base.GOMAXPROCS, cur.GOMAXPROCS)
	}
	baseBy := make(map[string]map[string]float64, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseBy[b.Name] = b.Metrics
	}
	seen := make(map[string]bool, len(cur.Benchmarks))
	for _, c := range cur.Benchmarks {
		seen[c.Name] = true
		b, ok := baseBy[c.Name]
		if !ok {
			add("", "%-24s new benchmark: %s", c.Name, metricDeltas(nil, c.Metrics))
			continue
		}
		bns, bok := b[nsPerOp]
		cns, cok := c.Metrics[nsPerOp]
		if !bok || !cok {
			add("", "%-24s %s (informational)", c.Name, metricDeltas(b, c.Metrics))
			continue
		}
		pct := (cns - bns) / bns * 100
		add("", "%-24s %12.0f -> %12.0f ns/op  %+6.1f%%  allocs %.0f -> %.0f",
			c.Name, bns, cns, pct, b[allocsPerOp], c.Metrics[allocsPerOp])
		switch {
		case pct > benchFailPct && likeForLike:
			add("error", "%s regressed %.1f%% (%.0f -> %.0f ns/op), over the %d%% failure threshold", c.Name, pct, bns, cns, benchFailPct)
		case pct > benchFailPct:
			add("warning", "%s regressed %.1f%% (%.0f -> %.0f ns/op) — not failing: CPU counts differ", c.Name, pct, bns, cns)
		case pct > benchWarnPct:
			add("warning", "%s regressed %.1f%% (%.0f -> %.0f ns/op)", c.Name, pct, bns, cns)
		}
		if c.Metrics[allocsPerOp] > b[allocsPerOp] {
			add("warning", "%s allocations grew %.0f -> %.0f allocs/op", c.Name, b[allocsPerOp], c.Metrics[allocsPerOp])
		}
	}
	for _, b := range base.Benchmarks {
		if !seen[b.Name] {
			add("", "%-24s missing from current run (was %s)", b.Name, metricDeltas(nil, b.Metrics))
		}
	}
	return out
}

// metricDeltas formats cur's metrics in key order, each preceded by
// its baseline value when base records one.
func metricDeltas(base, cur map[string]float64) string {
	keys := make([]string, 0, len(cur))
	for k := range cur {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		if b, ok := base[k]; ok {
			parts[i] = fmt.Sprintf("%s %.4g -> %.4g", k, b, cur[k])
		} else {
			parts[i] = fmt.Sprintf("%s %.4g", k, cur[k])
		}
	}
	return strings.Join(parts, ", ")
}

// TestBenchRegistry holds the committed snapshots to the registry
// without running a benchmark: every entry has exactly one home, every
// registered file is committed with exactly its row's entries, and no
// committed file is left unregistered.
func TestBenchRegistry(t *testing.T) {
	home := map[string]string{}
	registered := map[string]bool{}
	for _, f := range benchFiles {
		registered[f.path()] = true
		for _, name := range f.names() {
			if other, dup := home[name]; dup {
				t.Errorf("%s is registered in both %s and %s", name, other, f.path())
			}
			home[name] = f.path()
		}
		for _, g := range f.gates {
			for _, name := range g.retake {
				if f.bench(name) == nil {
					t.Errorf("%s gate %q retakes %s, which is not one of its closed-loop benchmarks", f.path(), g.name, name)
				}
			}
		}
		rep, err := loadBenchReport(f.path())
		if err != nil {
			t.Errorf("registered file: %v", err)
			continue
		}
		var got []string
		for _, e := range rep.Benchmarks {
			got = append(got, e.Name)
		}
		if want := f.names(); !slices.Equal(got, want) {
			t.Errorf("%s records %v, its registry row names %v", f.path(), got, want)
		}
	}
	committed, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range committed {
		if !registered[path] {
			t.Errorf("%s is committed but has no registry row", path)
		}
	}
}

func TestBenchDiff(t *testing.T) {
	closed := func(name string, ns, allocs float64) benchEntry {
		return benchEntry{Name: name, Metrics: map[string]float64{nsPerOp: ns, allocsPerOp: allocs}}
	}
	report := func(cpus int, entries ...benchEntry) *benchReport {
		return &benchReport{CPUs: cpus, GOMAXPROCS: cpus, Benchmarks: entries}
	}
	openLoop := func(p99 float64) benchEntry {
		return benchEntry{Name: "OpenLoop", Metrics: map[string]float64{"p99_ns": p99, "shed_frac": 0}}
	}
	for _, tc := range []struct {
		name              string
		base, cur         *benchReport
		wantErr, wantWarn bool
	}{
		{"within noise", report(2, closed("A", 100, 0)), report(2, closed("A", 105, 0)), false, false},
		{"26% slower, same CPUs", report(2, closed("A", 100, 0)), report(2, closed("A", 126, 0)), true, false},
		{"26% slower, other CPUs", report(2, closed("A", 100, 0)), report(4, closed("A", 126, 0)), false, true},
		{"11% slower", report(2, closed("A", 100, 0)), report(2, closed("A", 111, 0)), false, true},
		{"allocs grew", report(2, closed("A", 100, 0)), report(2, closed("A", 100, 1)), false, true},
		{"GOMAXPROCS differs", report(2, closed("A", 100, 0)),
			&benchReport{CPUs: 2, GOMAXPROCS: 1, Benchmarks: []benchEntry{closed("A", 100, 0)}}, false, true},
		{"new and missing entries", report(2, closed("A", 100, 0), closed("Gone", 1, 0)),
			report(2, closed("A", 100, 0), closed("New", 1e9, 9)), false, false},
		{"no ns_per_op is informational", report(2, openLoop(1e6)), report(2, openLoop(1e9)), false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var gotErr, gotWarn bool
			for _, f := range diffBench(tc.base, tc.cur) {
				gotErr = gotErr || f.level == "error"
				gotWarn = gotWarn || f.level == "warning"
			}
			if gotErr != tc.wantErr || gotWarn != tc.wantWarn {
				t.Errorf("error=%v warning=%v, want error=%v warning=%v: %+v",
					gotErr, gotWarn, tc.wantErr, tc.wantWarn, diffBench(tc.base, tc.cur))
			}
		})
	}
}

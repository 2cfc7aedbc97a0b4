// Command perfbench is the repository benchmark. It stands up the
// analysis server the way prodigyd does, drives one of two seeded
// workloads through server.Server.ServeHTTP in-process, checks every
// answer against a reference computed through the public API, and prints
// the end-to-end metrics (or, with --trace 1, the per-layer metrics of a
// traced replay). The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": M, "metrics": {name: {"value": v, "unit": u}}}
//
// Run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload dashboard --seed 1 --seconds 40 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"prodigy/internal/obs"
)

// setupRuns is how many times a run stands the server up; setup_s is the
// median.
const setupRuns = 5

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the end-to-end metrics and their units, in the order of
// BENCHMARK.json; every untraced run reports all of them.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"}, {"heap_peak_mb", "MiB"}, {"served_frac", "ratio"}, {"p50_ms", "ms"}, {"p99_ms", "ms"},
	{"done_per_s", "1/s"}, {"max_per_s", "1/s"}, {"verdict_f1", "ratio"},
}

// e2eMetrics attaches units to one value per end-to-end metric.
func e2eMetrics(v map[string]float64) map[string]metric {
	if len(v) != len(endToEnd) {
		panic(fmt.Sprintf("%d end-to-end values for %d metrics", len(v), len(endToEnd)))
	}
	m := map[string]metric{}
	for _, e := range endToEnd {
		x, ok := v[e.name]
		if !ok {
			panic("no value for end-to-end metric " + e.name)
		}
		m[e.name] = metric{x, e.unit}
	}
	return m
}

// report is the final line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "dashboard or score")
	seed := flag.Int64("seed", 1, "workload seed; the program sees only the inputs generated from it")
	seconds := flag.Int("seconds", 40, "how long the timed phase measures")
	trace := flag.Int("trace", 0, "1 runs the traced replay and reports per-layer metrics")
	traceOut := flag.String("trace-out", ".bench_build/perfbench", "directory the traced run writes its spans to")
	flag.Parse()
	if (*workload != "dashboard" && *workload != "score") || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload dashboard|score --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	obs.SetLogLevel(obs.LevelWarn)
	env := environment(*workload, *seed, *trace == 1)
	fmt.Printf("env %s\n", mustJSON(env))

	rep, err := run(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *traceOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printMetrics(rep.Metrics)
	fmt.Println(mustJSON(rep))
	if !rep.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: answers did not match the reference")
		os.Exit(1)
	}
}

// run stands the server up setupRuns times, keeps the last deployment,
// prepares the workload's inputs and runs it.
func run(workload string, seed int64, window time.Duration, traced bool, traceOut string) (*report, error) {
	ensembleOn := workload == "score"
	var d *deployment
	var times []setupTimes
	for i := 0; i < setupRuns; i++ {
		if d != nil {
			d.srv.Close()
			d = nil
			runtime.GC()
		}
		var err error
		probe := startHostProbe()
		d, err = standUp(seed, ensembleOn)
		slow := probe.halt().overall()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d.times.slow = slow
		times = append(times, d.times)
	}
	defer d.srv.Close()
	switch {
	case workload == "dashboard" && traced:
		return traceDashboard(d, seed, window, times, traceOut)
	case workload == "dashboard":
		return benchDashboard(d, seed, window, times)
	case traced:
		return traceScore(d, seed, window, times, traceOut)
	default:
		return benchScore(d, seed, window, times)
	}
}

// settle clears the garbage set-up and input generation left behind, so
// the timed phase does not pay for it. The second collection empties the
// sync.Pool caches, which keep their objects through one, so every run
// starts from the same pooled memory. The freed memory stays with the
// process: returned to the OS, it would be faulted back in page by page
// during the timed phase.
func settle() {
	runtime.GC()
	runtime.GC()
}

// setupSeconds is the median total set-up time, each stand-up's scaled to
// the reference host speed, and the median raw time.
func setupSeconds(times []setupTimes) (scaled, raw float64) {
	s := make([]float64, len(times))
	r := make([]float64, len(times))
	for i, t := range times {
		r[i] = t.total().Seconds()
		s[i] = r[i] / t.slow
	}
	return median(s), median(r)
}

// printSetup reports set-up time raw and scaled.
func printSetup(times []setupTimes) float64 {
	scaled, raw := setupSeconds(times)
	slows := make([]float64, len(times))
	for i, t := range times {
		slows[i] = t.slow
	}
	fmt.Printf("set-up: %d stand-ups, median %.3f s raw, %.3f s scaled (host slowness %.3f)\n", len(times), raw, scaled, median(slows))
	return scaled
}

// benchDashboard is the untraced dashboard run.
func benchDashboard(d *deployment, seed int64, window time.Duration, times []setupTimes) (*report, error) {
	in, err := prepareDashboard(d, seed)
	if err != nil {
		return nil, err
	}
	setupS := printSetup(times)
	run := dashboardLoad(d, in, window)
	t := &run.tally
	lat := sortedMs(t.latencies)
	p99, ok := percentile(lat, 0.99)
	if !ok {
		return nil, fmt.Errorf("p99 needs %d samples, got %d", samplesFor(0.99), len(lat))
	}
	fmt.Printf("dashboard: %d users, %d requests in %.2fs (%d answered, %d shed, %d errors, %d mismatched, %d late), %d ticks ingested (%d rows, median tick %.3f ms)\n",
		runtime.NumCPU(), t.attempted, run.elapsed.Seconds(), len(t.latencies), t.shed, t.errored, t.mismatched, t.late, len(run.ingest), run.rows, median(sortedMs(run.ingest)))
	fmt.Printf("runtime: %s\n", run.rt)
	fmt.Printf("latency samples: %d; done_per_s and p50_ms are medians over %d blocks of %d requests\n",
		len(lat), run.blocks, dashBlockPasses*len(d.jobs))
	fmt.Printf("raw: done_per_s %.4g, p50_ms %.4g, p99_ms %.4g; host slowness %.3f over the run\n", run.rawDone, run.rawP50, p99, run.slow)
	m := e2eMetrics(map[string]float64{
		"setup_s":      setupS,
		"heap_peak_mb": run.heapMB,
		"served_frac":  t.servedFrac(),
		"p50_ms":       run.p50,
		"p99_ms":       p99 / run.slow,
		"done_per_s":   run.donePerS,
		"max_per_s":    run.donePerS, // a copy: a closed loop's highest sustained rate is the one its users reach
		"verdict_f1":   run.f1,
	})
	return &report{Correct: t.mismatched == 0 && in.warmBad == 0, Attempted: t.attempted, Failed: t.failed(), Metrics: m}, nil
}

// benchScore is the untraced scoring run: a nominal-rate open-loop phase
// for the latency metrics, then a saturating closed loop for max_per_s.
func benchScore(d *deployment, seed int64, window time.Duration, times []setupTimes) (*report, error) {
	in, err := prepareScore(d, seed)
	if err != nil {
		return nil, err
	}
	setupS := printSetup(times)

	rt0 := readRuntime()
	heap := startHeapWatch(heapEvery)
	nom := openLoopScore(d, in, nominalRate, nominalWindow(window))
	heapMB := heap.halt()
	rt := readRuntime().sub(rt0)
	t := &nom.tally
	lat := sortedMs(t.latencies)
	p50, _ := percentile(nom.scaledMs, 0.50)
	p99, ok := percentile(nom.scaledMs, 0.99)
	if !ok {
		return nil, fmt.Errorf("p99 needs %d samples, got %d", samplesFor(0.99), len(lat))
	}
	rawP50, _ := percentile(lat, 0.50)
	rawP99, _ := percentile(lat, 0.99)
	settle()
	sat := saturate(d, in, window-nominalWindow(window))

	fmt.Printf("score nominal: %.2f/s offered, %d requests (%d answered, %d shed, %d errors, %d mismatched, %d late), latency samples %d\n",
		nom.rate, t.attempted, len(t.latencies), t.shed, t.errored, t.mismatched, t.late, len(lat))
	fmt.Printf("runtime (nominal phase): %s\n", rt)
	fmt.Printf("score saturated: %d collectors, %d requests (%d shed, %d errors, %d mismatched, %d late)\n",
		4*runtime.GOMAXPROCS(0), sat.tally.attempted, sat.tally.shed, sat.tally.errored, sat.tally.mismatched, sat.tally.late)
	fmt.Printf("raw: p50_ms %.4g, p99_ms %.4g (host slowness %.3f); max_per_s %.4g (host slowness %.3f)\n",
		rawP50, rawP99, nom.slow, sat.rawRate, sat.slow)
	m := e2eMetrics(map[string]float64{
		"setup_s":      setupS,
		"heap_peak_mb": heapMB,
		"served_frac":  t.servedFrac(),
		"p50_ms":       p50,
		"p99_ms":       p99,
		"done_per_s":   float64(t.served) / nom.elapsed.Seconds(), // the fixed offered rate × served_frac
		"max_per_s":    sat.rate,
		"verdict_f1":   scoreF1(in, nom.results),
	})
	return &report{Correct: t.mismatched+sat.tally.mismatched+in.warmBad == 0, Attempted: t.attempted + sat.tally.attempted,
		Failed: t.failed() + sat.tally.failed(), Metrics: m}, nil
}

// environment records where the run happened.
func environment(workload string, seed int64, traced bool) map[string]interface{} {
	return map[string]interface{}{
		"workload":   workload,
		"seed":       seed,
		"trace":      traced,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"goarch":     runtime.GOARCH,
	}
}

// cpuModel reads the processor name, or "unknown" where it cannot.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-34s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}

func mustJSON(v interface{}) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain maps of numbers and strings
	}
	return string(b)
}

package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// TestConcurrentHammering drives counters, gauges and histograms from many
// goroutines at once; run under -race this is the data-race regression for
// the whole metrics layer, and the final values prove no increment is lost.
func TestConcurrentHammering(t *testing.T) {
	r := NewRegistry()
	ctr := r.NewCounterVec("hammer_total", "t", "worker")
	gauge := r.NewGauge("hammer_gauge", "t")
	hist := r.NewHistogram("hammer_seconds", "t", []float64{0.1, 1, 10})

	const workers = 32
	const perWorker = 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			label := string(rune('a' + w%4))
			for i := 0; i < perWorker; i++ {
				ctr.With(label).Inc()
				gauge.Add(1)
				gauge.Add(-1)
				hist.Observe(float64(i%3) + 0.05)
			}
		}(w)
	}
	wg.Wait()

	var total float64
	for _, l := range []string{"a", "b", "c", "d"} {
		total += ctr.With(l).Value()
	}
	if total != workers*perWorker {
		t.Fatalf("counter lost increments: %v != %v", total, workers*perWorker)
	}
	if g := gauge.Value(); g != 0 {
		t.Fatalf("gauge should balance to 0, got %v", g)
	}
	if c := hist.Count(); c != workers*perWorker {
		t.Fatalf("histogram count %d != %d", c, workers*perWorker)
	}
}

func TestCounterIgnoresNegative(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("neg_total", "t")
	c.Add(3)
	c.Add(-5)
	if c.Value() != 3 {
		t.Fatalf("counter = %v, want 3", c.Value())
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("q_seconds", "t", []float64{1, 2, 4, 8})
	if q := h.Quantile(0.5); q != 0 {
		t.Fatalf("empty histogram p50 = %v, want 0", q)
	}
	// 100 observations uniform in (0, 4]: 25 per unit interval.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) * 0.04)
	}
	if p50 := h.Quantile(0.5); math.Abs(p50-2) > 0.5 {
		t.Fatalf("p50 = %v, want ≈2", p50)
	}
	if p99 := h.Quantile(0.99); p99 < 3 || p99 > 4 {
		t.Fatalf("p99 = %v, want in (3,4]", p99)
	}
	// Overflow observations clamp to the largest finite bound.
	h.Observe(1e9)
	if q := h.Quantile(0.9999); q != 8 {
		t.Fatalf("overflow quantile = %v, want 8", q)
	}
}

// TestExpositionGolden pins the exact Prometheus text exposition: family
// ordering, label escaping, histogram bucket cumulation. A format drift
// here breaks real scrapers, so the expected text is spelled out in full.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounterVec("api_requests_total", "Requests served.", "route", "class")
	c.With("/api/jobs", "2xx").Add(3)
	c.With("/api/jobs", "5xx").Inc()
	r.NewGauge("build_info", "Fixed gauge.").Set(1)
	// Observations are exact binary fractions so the _sum line is stable.
	h := r.NewHistogram("latency_seconds", "Latency.", []float64{0.5, 1})
	h.Observe(0.25)
	h.Observe(0.25)
	h.Observe(0.75)
	h.Observe(2)
	r.NewCounterVec("weird_total", `Help with \ backslash`, "v").With(`quote"and\slash`).Inc()

	var b strings.Builder
	r.WritePrometheus(&b)
	want := `# HELP api_requests_total Requests served.
# TYPE api_requests_total counter
api_requests_total{route="/api/jobs",class="2xx"} 3
api_requests_total{route="/api/jobs",class="5xx"} 1
# HELP build_info Fixed gauge.
# TYPE build_info gauge
build_info 1
# HELP latency_seconds Latency.
# TYPE latency_seconds histogram
latency_seconds_bucket{le="0.5"} 2
latency_seconds_bucket{le="1"} 3
latency_seconds_bucket{le="+Inf"} 4
latency_seconds_sum 3.25
latency_seconds_count 4
# HELP weird_total Help with \\ backslash
# TYPE weird_total counter
weird_total{v="quote\"and\\slash"} 1
`
	if b.String() != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
}

func TestReregistrationPanicsOnTypeMismatch(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("dual_total", "t")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge should panic")
		}
	}()
	r.NewGauge("dual_total", "t")
}

func TestSnapshotShape(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("snap_total", "t").Add(2)
	h := r.NewHistogram("snap_seconds", "t", []float64{1, 2})
	h.Observe(0.5)
	snap := r.Snapshot()
	if snap["snap_total"] != 2.0 {
		t.Fatalf("snapshot counter = %v", snap["snap_total"])
	}
	hm, ok := snap["snap_seconds"].(map[string]interface{})
	if !ok || hm["count"].(uint64) != 1 {
		t.Fatalf("snapshot histogram = %#v", snap["snap_seconds"])
	}
}

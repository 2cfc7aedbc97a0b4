package tsdb

import (
	"math"
	"sync"
	"testing"
	"time"

	"prodigy/internal/obs"
)

// fakeClock steps deterministically; every test drives scrapes by hand so
// nothing here sleeps.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func testStore(t *testing.T, retention int) (*Store, *obs.Registry, *fakeClock) {
	t.Helper()
	reg := obs.NewRegistry()
	clk := newFakeClock()
	st := New(reg, Config{Interval: time.Second, Retention: retention, Now: clk.Now})
	return st, reg, clk
}

func TestScrapeAndRawQuery(t *testing.T) {
	st, reg, clk := testStore(t, 16)
	c := reg.NewCounterVec("reqs_total", "t", "path")
	c.With("/a").Add(1)

	st.ScrapeOnce()
	clk.Advance(time.Second)
	c.With("/a").Add(2)
	c.With("/b").Inc()
	st.ScrapeOnce()

	res := st.Query("reqs_total", map[string]string{"path": "/a"}, time.Time{}, time.Time{})
	if len(res) != 1 {
		t.Fatalf("got %d series, want 1: %+v", len(res), res)
	}
	pts := res[0].Points
	if len(pts) != 2 || pts[0].V != 1 || pts[1].V != 3 {
		t.Fatalf("points = %+v, want [1 3]", pts)
	}
	if pts[1].T-pts[0].T != 1000 {
		t.Fatalf("timestamps %d,%d not 1s apart", pts[0].T, pts[1].T)
	}
	// /b appeared at the second scrape only.
	if res := st.Query("reqs_total", map[string]string{"path": "/b"}, time.Time{}, time.Time{}); len(res) != 1 || len(res[0].Points) != 1 {
		t.Fatalf("late series /b = %+v", res)
	}
}

func TestRetentionRing(t *testing.T) {
	st, reg, clk := testStore(t, 4)
	g := reg.NewGauge("depth", "t")
	for i := 0; i < 10; i++ {
		g.Set(float64(i))
		st.ScrapeOnce()
		clk.Advance(time.Second)
	}
	res := st.Query("depth", nil, time.Time{}, time.Time{})
	if len(res) != 1 || len(res[0].Points) != 4 {
		t.Fatalf("retention violated: %+v", res)
	}
	for i, p := range res[0].Points {
		if want := float64(6 + i); p.V != want {
			t.Fatalf("ring point %d = %v, want %v (oldest evicted first)", i, p.V, want)
		}
	}
}

func TestRateResetTolerant(t *testing.T) {
	st, reg, clk := testStore(t, 32)
	c := reg.NewCounter("work_total", "t")
	// 5 scrapes at 1/s increase, then a counter reset, then 2/s.
	for i := 0; i < 5; i++ {
		c.Add(1)
		st.ScrapeOnce()
		clk.Advance(time.Second)
	}
	// Simulate restart: new registry value would drop to 0. The obs
	// Counter can't go down, so fake it with a fresh store series by
	// using a gauge-backed counter-like series instead: easiest honest
	// reset is to scrape a second registry into the same store — not
	// supported — so instead verify the math on a monotone counter and
	// separately unit-test increase() with a reset below.
	v, ok := st.EvalAgg(AggQuery{Name: "work_total", Agg: AggRate, Window: 10 * time.Second}, clk.Now())
	if !ok || math.Abs(v-1.0) > 0.01 {
		t.Fatalf("rate = %v ok=%v, want ≈1.0", v, ok)
	}
}

func TestIncreaseSkipsResets(t *testing.T) {
	pts := []Point{{0, 10}, {1000, 12}, {2000, 3}, {3000, 6}}
	if inc := increase(pts); inc != 5 {
		t.Fatalf("increase with reset = %v, want 5 (2 before + 3 after)", inc)
	}
}

func TestDeltaAvgMinMax(t *testing.T) {
	st, reg, clk := testStore(t, 32)
	g := reg.NewGauge("lag", "t")
	for _, v := range []float64{5, 3, 9, 7} {
		g.Set(v)
		st.ScrapeOnce()
		clk.Advance(time.Second)
	}
	at := clk.Now()
	w := 10 * time.Second
	if v, ok := st.EvalAgg(AggQuery{Name: "lag", Agg: AggDelta, Window: w}, at); !ok || v != 2 {
		t.Fatalf("delta = %v ok=%v, want 2", v, ok)
	}
	if v, ok := st.EvalAgg(AggQuery{Name: "lag", Agg: AggAvg, Window: w}, at); !ok || v != 6 {
		t.Fatalf("avg = %v ok=%v, want 6", v, ok)
	}
	if v, ok := st.EvalAgg(AggQuery{Name: "lag", Agg: AggMin, Window: w}, at); !ok || v != 3 {
		t.Fatalf("min = %v ok=%v, want 3", v, ok)
	}
	if v, ok := st.EvalAgg(AggQuery{Name: "lag", Agg: AggMax, Window: w}, at); !ok || v != 9 {
		t.Fatalf("max = %v ok=%v, want 9", v, ok)
	}
}

func TestQuantileOverTime(t *testing.T) {
	st, reg, clk := testStore(t, 32)
	h := reg.NewHistogram("lat_seconds", "t", []float64{0.1, 0.2, 0.4})
	st.ScrapeOnce() // baseline scrape before any observations
	clk.Advance(time.Second)
	// 100 observations uniform-ish: 50 in (0,0.1], 30 in (0.1,0.2], 20 in (0.2,0.4].
	for i := 0; i < 50; i++ {
		h.Observe(0.05)
	}
	for i := 0; i < 30; i++ {
		h.Observe(0.15)
	}
	for i := 0; i < 20; i++ {
		h.Observe(0.3)
	}
	st.ScrapeOnce()
	v, ok := st.EvalAgg(AggQuery{Name: "lat_seconds", Agg: AggQuantile, Q: 0.5, Window: 10 * time.Second}, clk.Now())
	if !ok {
		t.Fatal("quantile not evaluable")
	}
	// rank 50 = edge of first bucket: exactly 0.1.
	if math.Abs(v-0.1) > 1e-9 {
		t.Fatalf("p50 = %v, want 0.1", v)
	}
	v, ok = st.EvalAgg(AggQuery{Name: "lat_seconds", Agg: AggQuantile, Q: 0.9, Window: 10 * time.Second}, clk.Now())
	// rank 90 in (0.2,0.4]: 0.2 + 0.2*(90-80)/20 = 0.3.
	if !ok || math.Abs(v-0.3) > 1e-9 {
		t.Fatalf("p90 = %v ok=%v, want 0.3", v, ok)
	}

	// frac_over 0.2: 20 of 100 observations above → 0.2.
	v, ok = st.EvalAgg(AggQuery{Name: "lat_seconds", Agg: AggFracOver, Bound: 0.2, Window: 10 * time.Second}, clk.Now())
	if !ok || math.Abs(v-0.2) > 1e-9 {
		t.Fatalf("frac_over(0.2) = %v ok=%v, want 0.2", v, ok)
	}
}

func TestQuantileWindowExcludesOldObservations(t *testing.T) {
	st, reg, clk := testStore(t, 64)
	h := reg.NewHistogram("lat2_seconds", "t", []float64{0.1, 1})
	// Old slow observations...
	for i := 0; i < 100; i++ {
		h.Observe(0.9)
	}
	st.ScrapeOnce()
	clk.Advance(time.Minute)
	st.ScrapeOnce() // base point inside lookback chain
	clk.Advance(time.Second)
	// ...then fast ones only.
	for i := 0; i < 100; i++ {
		h.Observe(0.05)
	}
	st.ScrapeOnce()
	// 5s window covers only the fast batch: p90 must interpolate inside
	// (0, 0.1], untouched by the old 0.9s mass.
	v, ok := st.EvalAgg(AggQuery{Name: "lat2_seconds", Agg: AggQuantile, Q: 0.9, Window: 5 * time.Second}, clk.Now())
	if !ok || v > 0.1+1e-9 {
		t.Fatalf("windowed p90 = %v ok=%v, want ≤0.1", v, ok)
	}
}

func TestQueryAggDerivedSeries(t *testing.T) {
	st, reg, clk := testStore(t, 32)
	c := reg.NewCounter("ticks_total", "t")
	start := clk.Now()
	for i := 0; i < 6; i++ {
		c.Add(2) // steady 2/s
		st.ScrapeOnce()
		clk.Advance(time.Second)
	}
	res := st.QueryAgg(AggQuery{Name: "ticks_total", Agg: AggRate, Window: 3 * time.Second}, start, clk.Now())
	if len(res) != 1 {
		t.Fatalf("derived series count = %d", len(res))
	}
	if res[0].Name != "ticks_total_rate" {
		t.Fatalf("derived name = %q", res[0].Name)
	}
	if len(res[0].Points) == 0 {
		t.Fatal("no derived points")
	}
	last := res[0].Points[len(res[0].Points)-1]
	if math.Abs(last.V-2.0) > 0.01 {
		t.Fatalf("steady rate = %v, want 2.0", last.V)
	}
}

func TestEvalAggInsufficientData(t *testing.T) {
	st, reg, clk := testStore(t, 8)
	reg.NewCounter("lonely_total", "t").Inc()
	st.ScrapeOnce()
	// One point: rate/delta not evaluable; absent series not evaluable.
	if _, ok := st.EvalAgg(AggQuery{Name: "lonely_total", Agg: AggRate, Window: 10 * time.Second}, clk.Now()); ok {
		t.Fatal("rate from one point should not be evaluable")
	}
	if _, ok := st.EvalAgg(AggQuery{Name: "missing_total", Agg: AggRate, Window: 10 * time.Second}, clk.Now()); ok {
		t.Fatal("absent series should not be evaluable")
	}
	if _, ok := st.EvalAgg(AggQuery{Name: "lonely_total", Agg: AggAvg, Window: 0}, clk.Now()); ok {
		t.Fatal("zero window should not be evaluable")
	}
}

func TestParseAgg(t *testing.T) {
	for _, good := range []string{"", "raw", "rate", "delta", "avg", "min", "max", "quantile", "frac_over"} {
		if _, err := ParseAgg(good); err != nil {
			t.Errorf("ParseAgg(%q) = %v", good, err)
		}
	}
	if _, err := ParseAgg("stddev"); err == nil {
		t.Error("ParseAgg should reject unknown aggregations")
	}
}

// TestConcurrentScrapeQuery hammers scrapes, raw queries, windowed
// aggregations and series listing from many goroutines; under -race this
// is the data-race regression for the store.
func TestConcurrentScrapeQuery(t *testing.T) {
	st, reg, clk := testStore(t, 64)
	c := reg.NewCounterVec("conc_total", "t", "k")
	h := reg.NewHistogram("conc_seconds", "t", []float64{0.1, 1})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // scrape loop (serialized: one goroutine)
		defer wg.Done()
		for i := 0; i < 200; i++ {
			c.With("a").Inc()
			h.Observe(0.05)
			st.ScrapeOnce()
			clk.Advance(100 * time.Millisecond)
		}
		close(stop)
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st.Query("conc_total", map[string]string{"k": "a"}, time.Time{}, time.Time{})
				st.EvalAgg(AggQuery{Name: "conc_total", Agg: AggRate, Window: time.Second}, clk.Now())
				st.EvalAgg(AggQuery{Name: "conc_seconds", Agg: AggQuantile, Q: 0.9, Window: time.Second}, clk.Now())
			}
		}()
	}
	wg.Wait()
	if got := st.Query("conc_total", nil, time.Time{}, time.Time{}); len(got) != 1 || len(got[0].Points) == 0 {
		t.Fatalf("post-hammer query = %+v", got)
	}
}

// TestStartStop exercises the background loop against the real ticker
// (the only test that touches wall time, bounded by the interval).
func TestStartStop(t *testing.T) {
	reg := obs.NewRegistry()
	reg.NewCounter("bg_total", "t").Inc()
	st := New(reg, Config{Interval: 5 * time.Millisecond, Retention: 8})
	st.Start()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if res := st.Query("bg_total", nil, time.Time{}, time.Time{}); len(res) == 1 && len(res[0].Points) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background scrape never ran")
		}
		time.Sleep(time.Millisecond)
	}
	st.Stop()
	st.Stop() // idempotent
}

// TestAfterScrapeHook pins the alert engine's contract: the hook runs
// once per scrape with the scrape's timestamp.
func TestAfterScrapeHook(t *testing.T) {
	reg := obs.NewRegistry()
	clk := newFakeClock()
	var got []time.Time
	st := New(reg, Config{Interval: time.Second, Retention: 8, Now: clk.Now,
		AfterScrape: func(ts time.Time) { got = append(got, ts) }})
	st.ScrapeOnce()
	clk.Advance(time.Second)
	st.ScrapeOnce()
	if len(got) != 2 || !got[1].Equal(got[0].Add(time.Second)) {
		t.Fatalf("AfterScrape timestamps = %v", got)
	}
}

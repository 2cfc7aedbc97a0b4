package comte

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"prodigy/internal/mat"
)

// ruleClassifier flags a sample anomalous when any watched column exceeds
// its threshold. Watched columns correspond to known metric groups, so the
// minimal explanation is exactly the set of offending metrics.
type ruleClassifier struct {
	thresholds map[int]float64 // column -> limit
}

func (r *ruleClassifier) Predict(x *mat.Matrix) ([]int, []float64) {
	preds := make([]int, x.Rows)
	scores := make([]float64, x.Rows)
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		for col, limit := range r.thresholds {
			if over := row[col] - limit; over > 0 {
				preds[i] = 1
				if over > scores[i] {
					scores[i] = over
				}
			}
		}
	}
	return preds, scores
}

// testSetup: 3 metrics × 2 features each = 6 columns. The classifier
// watches column 0 (metricA) and column 4 (metricC).
func testSetup() (*ruleClassifier, *mat.Matrix, []string) {
	names := []string{
		"metricA__mean", "metricA__std",
		"metricB__mean", "metricB__std",
		"metricC__mean", "metricC__std",
	}
	clf := &ruleClassifier{thresholds: map[int]float64{0: 1.0, 4: 1.0}}
	// Healthy pool: everything ~0.5.
	rng := rand.New(rand.NewSource(1))
	pool := mat.New(20, 6)
	for i := range pool.Data {
		pool.Data[i] = 0.4 + rng.Float64()*0.2
	}
	return clf, pool, names
}

func TestGroupByMetric(t *testing.T) {
	_, _, names := testSetup()
	groups := GroupByMetric(names)
	if len(groups) != 3 {
		t.Fatalf("%d groups", len(groups))
	}
	if got := groups["metricA"]; len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("metricA group = %v", got)
	}
	// Names without separator become their own group.
	g := GroupByMetric([]string{"plain"})
	if len(g["plain"]) != 1 {
		t.Fatal("ungrouped name should form its own group")
	}
}

func TestNewValidation(t *testing.T) {
	clf, pool, names := testSetup()
	if _, err := New(clf, mat.New(0, 6), names, DefaultConfig()); err == nil {
		t.Fatal("empty pool should error")
	}
	if _, err := New(clf, pool, names[:3], DefaultConfig()); err == nil {
		t.Fatal("name count mismatch should error")
	}
	e, err := New(clf, pool, names, Config{}) // zero config gets defaults
	if err != nil {
		t.Fatal(err)
	}
	if e.Cfg.MaxMetrics != 3 || e.Cfg.NumDistractors != 3 || e.Cfg.Restarts != 5 {
		t.Fatalf("defaults not applied: %+v", e.Cfg)
	}
}

func TestBruteForceFindsSingleMetric(t *testing.T) {
	clf, pool, names := testSetup()
	e, err := New(clf, pool, names, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Anomalous only in metricA.
	x := []float64{5, 5, 0.5, 0.5, 0.5, 0.5}
	expl, err := e.BruteForceSearch(x)
	if err != nil {
		t.Fatal(err)
	}
	if len(expl.Metrics) != 1 || expl.Metrics[0] != "metricA" {
		t.Fatalf("explanation = %v", expl.Metrics)
	}
	if expl.ScoreBefore <= 0 {
		t.Fatal("ScoreBefore should be positive for an anomaly")
	}
}

func TestBruteForceFindsPair(t *testing.T) {
	clf, pool, names := testSetup()
	e, _ := New(clf, pool, names, DefaultConfig())
	// Anomalous in metricA and metricC: no single swap suffices.
	x := []float64{5, 5, 0.5, 0.5, 5, 5}
	expl, err := e.BruteForceSearch(x)
	if err != nil {
		t.Fatal(err)
	}
	if len(expl.Metrics) != 2 {
		t.Fatalf("explanation size = %d", len(expl.Metrics))
	}
	want := map[string]bool{"metricA": true, "metricC": true}
	for _, m := range expl.Metrics {
		if !want[m] {
			t.Fatalf("unexpected metric %s", m)
		}
	}
}

func TestOptimizedMatchesBruteForce(t *testing.T) {
	clf, pool, names := testSetup()
	e, _ := New(clf, pool, names, DefaultConfig())
	x := []float64{5, 5, 0.5, 0.5, 5, 5}
	expl, err := e.OptimizedSearch(x)
	if err != nil {
		t.Fatal(err)
	}
	if len(expl.Metrics) != 2 {
		t.Fatalf("optimized explanation size = %d (%v)", len(expl.Metrics), expl.Metrics)
	}
	if expl.Metrics[0] != "metricA" || expl.Metrics[1] != "metricC" {
		t.Fatalf("metrics = %v", expl.Metrics)
	}
}

func TestHealthySampleErrors(t *testing.T) {
	clf, pool, names := testSetup()
	e, _ := New(clf, pool, names, DefaultConfig())
	healthy := []float64{0.5, 0.5, 0.5, 0.5, 0.5, 0.5}
	if _, err := e.BruteForceSearch(healthy); err == nil {
		t.Fatal("healthy sample should not be explainable")
	}
	if _, err := e.OptimizedSearch(healthy); err == nil {
		t.Fatal("healthy sample should not be explainable (optimized)")
	}
}

func TestMaxMetricsBound(t *testing.T) {
	clf, pool, names := testSetup()
	cfg := DefaultConfig()
	cfg.MaxMetrics = 1
	e, _ := New(clf, pool, names, cfg)
	// Needs two metrics but MaxMetrics is 1.
	x := []float64{5, 5, 0.5, 0.5, 5, 5}
	if _, err := e.BruteForceSearch(x); err == nil {
		t.Fatal("brute force should fail within 1 metric")
	}
	// Optimized returns the best-found with an explanatory error.
	expl, err := e.OptimizedSearch(x)
	if err == nil {
		t.Fatal("optimized should report the size overflow")
	}
	if expl == nil || len(expl.Metrics) != 2 {
		t.Fatalf("optimized should still return the smallest found: %+v", expl)
	}
}

func TestNearestDistractorsOrdering(t *testing.T) {
	clf, pool, names := testSetup()
	// Make row 7 exactly equal to the query: it must be the first candidate.
	x := []float64{5, 5, 0.5, 0.5, 0.5, 0.5}
	copy(pool.Row(7), x)
	cfg := DefaultConfig()
	cfg.NumDistractors = 1
	e, _ := New(clf, pool, names, cfg)
	got := e.nearestDistractors(x)
	if len(got) != 1 || got[0] != 7 {
		t.Fatalf("nearest = %v", got)
	}
}

func TestSubstituteIsolatesGroups(t *testing.T) {
	clf, pool, names := testSetup()
	e, _ := New(clf, pool, names, DefaultConfig())
	x := []float64{1, 2, 3, 4, 5, 6}
	d := []float64{10, 20, 30, 40, 50, 60}
	out := e.substitute(x, d, []string{"metricB"})
	want := []float64{1, 2, 30, 40, 5, 6}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("substitute = %v", out)
		}
	}
	// Original untouched.
	if x[2] != 3 {
		t.Fatal("substitute must copy")
	}
}

// Property: on random rule classifiers, OptimizedSearch never returns a
// larger explanation than BruteForceSearch's minimum, and both flip the
// prediction.
func TestQuickOptimizedMatchesBruteForceSize(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// 4 metrics × 2 features; 1-3 of them are "offending".
		names := []string{
			"m0__a", "m0__b", "m1__a", "m1__b",
			"m2__a", "m2__b", "m3__a", "m3__b",
		}
		numBad := 1 + rng.Intn(3)
		badMetrics := rng.Perm(4)[:numBad]
		thresholds := map[int]float64{}
		x := make([]float64, 8)
		for i := range x {
			x[i] = 0.5
		}
		for _, m := range badMetrics {
			col := m * 2 // first feature of the metric
			thresholds[col] = 1.0
			x[col] = 5
		}
		clf := &ruleClassifier{thresholds: thresholds}
		pool := mat.New(12, 8)
		for i := range pool.Data {
			pool.Data[i] = 0.4 + rng.Float64()*0.2
		}
		cfg := DefaultConfig()
		cfg.MaxMetrics = 4
		cfg.Seed = seed
		e, err := New(clf, pool, names, cfg)
		if err != nil {
			return false
		}
		bf, errB := e.BruteForceSearch(x)
		opt, errO := e.OptimizedSearch(x)
		if errB != nil || errO != nil || bf == nil || opt == nil {
			return false
		}
		if len(bf.Metrics) != numBad || len(opt.Metrics) != numBad {
			return false
		}
		// Both must actually flip.
		if anom, _ := e.classify(e.substitute(x, e.Pool.Row(bf.DistractorIndex), bf.Metrics)); anom {
			return false
		}
		if anom, _ := e.classify(e.substitute(x, e.Pool.Row(opt.DistractorIndex), opt.Metrics)); anom {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRankByImpactOrdersOffenders(t *testing.T) {
	clf, pool, names := testSetup()
	e, _ := New(clf, pool, names, DefaultConfig())
	// metricC is far more offending than metricA.
	x := []float64{1.5, 0.5, 0.5, 0.5, 50, 0.5}
	expl, err := e.BruteForceSearch(x)
	if err != nil {
		t.Fatal(err)
	}
	ranked := e.RankByImpact(x, expl)
	if len(ranked) != len(expl.Metrics) {
		t.Fatal("rank must preserve the set")
	}
	if len(ranked) == 2 && ranked[0] != "metricC" {
		t.Fatalf("most impactful first: %v", ranked)
	}
}

// BruteForceSearch is the exact reference OptimizedSearch is checked
// against: it finds a minimum-size explanation by trying all metric
// subsets of size 1, then 2, ... up to MaxMetrics for each candidate
// distractor. Exponential; the tests keep MaxMetrics small.
func (e *Explainer) BruteForceSearch(x []float64) (*Explanation, error) {
	anom, before := e.classify(x)
	if !anom {
		return nil, fmt.Errorf("comte: sample is already classified healthy")
	}
	distractors := e.nearestDistractors(x)
	for size := 1; size <= e.Cfg.MaxMetrics; size++ {
		for _, di := range distractors {
			d := e.Pool.Row(di)
			if expl := e.searchSize(x, d, di, before, size); expl != nil {
				return expl, nil
			}
		}
	}
	return nil, fmt.Errorf("comte: no explanation within %d metrics", e.Cfg.MaxMetrics)
}

// searchSize tries all subsets of exactly size metrics against one
// distractor, returning the first (lexicographically smallest) flip.
func (e *Explainer) searchSize(x, d []float64, di int, before float64, size int) *Explanation {
	n := len(e.metricNames)
	idx := make([]int, size)
	for i := range idx {
		idx[i] = i
	}
	metrics := make([]string, size)
	for {
		for i, k := range idx {
			metrics[i] = e.metricNames[k]
		}
		if anom, after := e.classify(e.substitute(x, d, metrics)); !anom {
			out := make([]string, size)
			copy(out, metrics)
			return &Explanation{Metrics: out, DistractorIndex: di, ScoreBefore: before, ScoreAfter: after}
		}
		// Next combination.
		i := size - 1
		for i >= 0 && idx[i] == n-size+i {
			i--
		}
		if i < 0 {
			return nil
		}
		idx[i]++
		for j := i + 1; j < size; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

package lof

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"prodigy/internal/mat"
)

func clusterWithOutliers(nIn, nOut int, rng *rand.Rand) (*mat.Matrix, []int) {
	x := mat.New(nIn+nOut, 2)
	labels := make([]int, nIn+nOut)
	for i := 0; i < nIn; i++ {
		x.Data[i*x.Cols] = rng.NormFloat64() * 0.5
		x.Data[i*x.Cols+1] = rng.NormFloat64() * 0.5
	}
	for i := nIn; i < nIn+nOut; i++ {
		labels[i] = 1
		// Scatter outliers widely so they do not form their own dense
		// cluster (LOF cannot flag a micro-cluster larger than k).
		angle := rng.Float64() * 2 * math.Pi
		radius := 6 + rng.Float64()*10
		x.Data[i*x.Cols] = radius * math.Cos(angle)
		x.Data[i*x.Cols+1] = radius * math.Sin(angle)
	}
	return x, labels
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{K: 0}); err == nil {
		t.Fatal("expected k error")
	}
	if _, err := New(Config{K: 5, Contamination: 0.9}); err == nil {
		t.Fatal("expected contamination error")
	}
}

func TestFitNeedsEnoughSamples(t *testing.T) {
	l, _ := New(Config{K: 20, Contamination: 0.1})
	if err := l.Fit(mat.New(5, 2)); err == nil {
		t.Fatal("expected too-few-samples error")
	}
}

func TestScoresBeforeFitPanics(t *testing.T) {
	l, _ := New(DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	l.Scores(mat.New(1, 2))
}

func TestInliersScoreNearOne(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x, _ := clusterWithOutliers(100, 0, rng)
	l, _ := New(Config{K: 10, Contamination: 0.1})
	if err := l.Fit(x); err != nil {
		t.Fatal(err)
	}
	scores := l.Scores(x)
	med := mat.Percentile(scores, 50)
	if med < 0.8 || med > 1.5 {
		t.Fatalf("inlier median LOF = %v, want ~1", med)
	}
}

func TestNoveltyDetection(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	train, _ := clusterWithOutliers(150, 0, rng)
	l, _ := New(Config{K: 10, Contamination: 0.05})
	if err := l.Fit(train); err != nil {
		t.Fatal(err)
	}
	// Unseen inlier vs. unseen far outlier.
	test := mat.FromRows([][]float64{{0.1, -0.2}, {50, 50}})
	scores := l.Scores(test)
	if scores[1] < 5*scores[0] {
		t.Fatalf("outlier LOF %v should dwarf inlier LOF %v", scores[1], scores[0])
	}
	preds := l.Predict(test)
	if preds[0] != 0 || preds[1] != 1 {
		t.Fatalf("predictions = %v", preds)
	}
}

func TestDuplicatePointsStable(t *testing.T) {
	// Many exact duplicates: lrd would divide by zero without the guard.
	rows := make([][]float64, 30)
	for i := range rows {
		rows[i] = []float64{1, 1}
	}
	x := mat.FromRows(rows)
	l, _ := New(Config{K: 5, Contamination: 0.1})
	if err := l.Fit(x); err != nil {
		t.Fatal(err)
	}
	for _, s := range l.Scores(x) {
		if math.IsNaN(s) || math.IsInf(s, 0) {
			t.Fatal("duplicate points must not produce NaN/Inf")
		}
	}
}

func TestPredictRecallOnPlantedOutliers(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x, labels := clusterWithOutliers(180, 20, rng)
	l, _ := New(Config{K: 15, Contamination: 0.1})
	if err := l.Fit(x); err != nil {
		t.Fatal(err)
	}
	preds := l.Predict(x)
	tp, fn := 0, 0
	for i := range preds {
		if labels[i] == 1 {
			if preds[i] == 1 {
				tp++
			} else {
				fn++
			}
		}
	}
	// The planted outliers form their own dense micro-cluster, so LOF can
	// miss some — but it must catch a clear majority with k > cluster size.
	if recall := float64(tp) / float64(tp+fn); recall < 0.6 {
		t.Fatalf("recall = %v", recall)
	}
}

// Property: LOF scores are positive and finite.
func TestQuickScoresFinite(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 30 + rng.Intn(80)
		x := mat.Randn(n, 3, 2, rng)
		l, err := New(Config{K: 5, Contamination: 0.1})
		if err != nil {
			return false
		}
		if err := l.Fit(x); err != nil {
			return false
		}
		test := mat.Randn(10, 3, 4, rng)
		for _, s := range l.Scores(test) {
			if s <= 0 || math.IsNaN(s) || math.IsInf(s, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

package iforest

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"prodigy/internal/mat"
)

// gaussianWithOutliers builds a tight Gaussian cluster plus far outliers.
func gaussianWithOutliers(nIn, nOut, dim int, rng *rand.Rand) (*mat.Matrix, []int) {
	x := mat.New(nIn+nOut, dim)
	labels := make([]int, nIn+nOut)
	for i := 0; i < nIn; i++ {
		for j := 0; j < dim; j++ {
			x.Data[i*x.Cols+j] = rng.NormFloat64()
		}
	}
	for i := nIn; i < nIn+nOut; i++ {
		labels[i] = 1
		for j := 0; j < dim; j++ {
			x.Data[i*x.Cols+j] = 10 + rng.NormFloat64()
		}
	}
	return x, labels
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{NumTrees: 0, MaxSamples: 10}); err == nil {
		t.Fatal("expected tree-count error")
	}
	if _, err := New(Config{NumTrees: 10, MaxSamples: 1}); err == nil {
		t.Fatal("expected max-samples error")
	}
	if _, err := New(Config{NumTrees: 10, MaxSamples: 10, Contamination: 0.9}); err == nil {
		t.Fatal("expected contamination error")
	}
}

func TestFitEmpty(t *testing.T) {
	f, _ := New(DefaultConfig())
	if err := f.Fit(mat.New(0, 3)); err == nil {
		t.Fatal("expected empty-set error")
	}
}

func TestScoresBeforeFitPanics(t *testing.T) {
	f, _ := New(DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f.Scores(mat.New(1, 2))
}

func TestOutliersScoreHigher(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x, labels := gaussianWithOutliers(450, 50, 4, rng)
	f, _ := New(DefaultConfig())
	if err := f.Fit(x); err != nil {
		t.Fatal(err)
	}
	scores := f.Scores(x)
	var inMean, outMean float64
	for i, s := range scores {
		if labels[i] == 1 {
			outMean += s
		} else {
			inMean += s
		}
	}
	inMean /= 450
	outMean /= 50
	if outMean <= inMean+0.1 {
		t.Fatalf("outlier mean %v vs inlier mean %v", outMean, inMean)
	}
}

func TestPredictFindsPlantedOutliers(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x, labels := gaussianWithOutliers(450, 50, 4, rng) // exactly 10% planted
	f, _ := New(DefaultConfig())
	if err := f.Fit(x); err != nil {
		t.Fatal(err)
	}
	preds := f.Predict(x)
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
	if recall := float64(tp) / float64(tp+fn); recall < 0.8 {
		t.Fatalf("recall of planted outliers = %v", recall)
	}
}

func TestConstantDataDoesNotLoop(t *testing.T) {
	x := mat.New(100, 3) // all zeros
	f, _ := New(DefaultConfig())
	if err := f.Fit(x); err != nil {
		t.Fatal(err)
	}
	scores := f.Scores(x)
	for _, s := range scores[1:] {
		if s != scores[0] {
			t.Fatal("constant data should give identical scores")
		}
	}
}

func TestAvgPathLength(t *testing.T) {
	if avgPathLength(0) != 0 || avgPathLength(1) != 0 {
		t.Fatal("degenerate c(n) should be 0")
	}
	// c(2) = 2·H(1) − 2·1/2 = 2·0.577 − 1 ≈ 0.154... use known formula value.
	got := avgPathLength(2)
	want := 2*(math.Log(1)+0.5772156649) - 1
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("c(2) = %v, want %v", got, want)
	}
	// c(n) grows with n.
	if avgPathLength(100) <= avgPathLength(10) {
		t.Fatal("c(n) must grow")
	}
}

// Property: scores are in (0, 1] and the deeper the isolation the lower the
// score.
func TestQuickScoreRange(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(100)
		x := mat.Randn(n, 3, 1, rng)
		forest, err := New(Config{NumTrees: 20, MaxSamples: 32, Contamination: 0.1, Seed: seed})
		if err != nil {
			return false
		}
		if err := forest.Fit(x); err != nil {
			return false
		}
		for _, s := range forest.Scores(x) {
			if s <= 0 || s > 1 || math.IsNaN(s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Property: the calibrated threshold flags at most ~contamination of the
// training set plus ties.
func TestQuickContaminationCalibration(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 200
		x := mat.Randn(n, 3, 1, rng)
		forest, err := New(Config{NumTrees: 25, MaxSamples: 64, Contamination: 0.1, Seed: seed})
		if err != nil {
			return false
		}
		if err := forest.Fit(x); err != nil {
			return false
		}
		flagged := 0
		for _, p := range forest.Predict(x) {
			flagged += p
		}
		// Strictly-above threshold keeps flagged ≤ 10% + slack for ties.
		return float64(flagged) <= 0.15*float64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

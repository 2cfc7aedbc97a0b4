package eval

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConfusionCounts(t *testing.T) {
	c := Evaluate([]int{1, 1, 0, 0, 1}, []int{1, 0, 0, 1, 1})
	if c.TP != 2 || c.FP != 1 || c.TN != 1 || c.FN != 1 {
		t.Fatalf("confusion = %+v", c)
	}
	if c.Total() != 5 {
		t.Fatalf("total = %d", c.Total())
	}
	if math.Abs(c.Accuracy()-0.6) > 1e-12 {
		t.Fatalf("accuracy = %v", c.Accuracy())
	}
}

func TestPerfectAndWorstF1(t *testing.T) {
	perfect := Evaluate([]int{0, 1, 0, 1}, []int{0, 1, 0, 1})
	if perfect.MacroF1() != 1 {
		t.Fatalf("perfect macro F1 = %v", perfect.MacroF1())
	}
	worst := Evaluate([]int{1, 0, 1, 0}, []int{0, 1, 0, 1})
	if worst.MacroF1() != 0 {
		t.Fatalf("worst macro F1 = %v", worst.MacroF1())
	}
}

// TestMajorityPredictionF1 reproduces the paper's observation (§6.1) that
// Majority Label Prediction lands around 0.47 macro F1 on a 90%-skewed
// test set: the majority class F1 is ~0.95 and the minority class F1 is 0.
func TestMajorityPredictionF1(t *testing.T) {
	truth := make([]int, 100)
	preds := make([]int, 100)
	for i := 0; i < 90; i++ {
		truth[i] = 1
	}
	for i := range preds {
		preds[i] = 1 // predict the majority class everywhere
	}
	f1 := MacroF1Of(preds, truth)
	if math.Abs(f1-0.4737) > 0.01 {
		t.Fatalf("majority macro F1 = %v, want ~0.47", f1)
	}
}

func TestPrecisionRecallPerClass(t *testing.T) {
	// 3 TP, 1 FP, 4 TN, 2 FN.
	c := &Confusion{TP: 3, FP: 1, TN: 4, FN: 2}
	p, r, f1 := c.PrecisionRecallF1(1)
	if math.Abs(p-0.75) > 1e-12 || math.Abs(r-0.6) > 1e-12 {
		t.Fatalf("anomaly p=%v r=%v", p, r)
	}
	if math.Abs(f1-2*0.75*0.6/(0.75+0.6)) > 1e-12 {
		t.Fatalf("anomaly f1=%v", f1)
	}
	p0, r0, _ := c.PrecisionRecallF1(0)
	if math.Abs(p0-4.0/6.0) > 1e-12 || math.Abs(r0-0.8) > 1e-12 {
		t.Fatalf("healthy p=%v r=%v", p0, r0)
	}
}

func TestEmptyConfusion(t *testing.T) {
	c := &Confusion{}
	if c.Accuracy() != 0 || c.MacroF1() != 0 {
		t.Fatal("empty confusion should be all zeros")
	}
}

func TestEvaluateLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Evaluate([]int{1}, []int{1, 0})
}

func TestStratifiedSplitPreservesDistribution(t *testing.T) {
	labels := make([]int, 1000)
	for i := 0; i < 100; i++ {
		labels[i] = 1 // 10% anomalies
	}
	rng := rand.New(rand.NewSource(1))
	train, test := StratifiedSplit(labels, 0.2, rng)
	if len(train)+len(test) != 1000 {
		t.Fatalf("split sizes %d + %d", len(train), len(test))
	}
	countAnom := func(idx []int) int {
		n := 0
		for _, i := range idx {
			n += labels[i]
		}
		return n
	}
	if got := countAnom(train); got != 20 {
		t.Fatalf("train anomalies = %d, want 20", got)
	}
	if got := countAnom(test); got != 80 {
		t.Fatalf("test anomalies = %d, want 80", got)
	}
	// No overlap.
	seen := map[int]bool{}
	for _, i := range append(append([]int{}, train...), test...) {
		if seen[i] {
			t.Fatalf("index %d appears twice", i)
		}
		seen[i] = true
	}
}

func TestKFoldPartition(t *testing.T) {
	labels := make([]int, 50)
	for i := 0; i < 10; i++ {
		labels[i] = 1
	}
	rng := rand.New(rand.NewSource(2))
	folds := KFold(labels, 5, rng)
	if len(folds) != 5 {
		t.Fatalf("%d folds", len(folds))
	}
	testCount := map[int]int{}
	for _, f := range folds {
		if len(f.Train)+len(f.Test) != 50 {
			t.Fatalf("fold sizes %d + %d", len(f.Train), len(f.Test))
		}
		// Train and test are disjoint.
		inTest := map[int]bool{}
		for _, i := range f.Test {
			inTest[i] = true
			testCount[i]++
		}
		for _, i := range f.Train {
			if inTest[i] {
				t.Fatalf("index %d in both train and test", i)
			}
		}
		// Each fold's test set is stratified: 2 anomalies of 10.
		anom := 0
		for _, i := range f.Test {
			anom += labels[i]
		}
		if anom != 2 {
			t.Fatalf("fold test anomalies = %d", anom)
		}
	}
	// Every sample in exactly one test set.
	for i := 0; i < 50; i++ {
		if testCount[i] != 1 {
			t.Fatalf("sample %d appears in %d test sets", i, testCount[i])
		}
	}
}

func TestKFoldPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic for k < 2")
			}
		}()
		KFold([]int{0, 1}, 1, rng)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic for class smaller than k")
			}
		}()
		KFold([]int{0, 0, 0, 1}, 3, rng)
	}()
}

func TestBestThreshold(t *testing.T) {
	// Scores perfectly separate at 0.5.
	scores := []float64{0.1, 0.2, 0.3, 0.8, 0.9}
	truth := []int{0, 0, 0, 1, 1}
	th, f1 := BestThreshold(scores, truth, 0, 1, 0.001)
	if f1 != 1 {
		t.Fatalf("best F1 = %v", f1)
	}
	if th <= 0.3 || th >= 0.8 {
		t.Fatalf("threshold = %v, want in (0.3, 0.8)", th)
	}
	preds := threshold(scores, th)
	for i, p := range preds {
		if p != truth[i] {
			t.Fatalf("preds = %v", preds)
		}
	}
}

func TestBestThresholdStepValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive step")
		}
	}()
	BestThreshold([]float64{1}, []int{1}, 0, 1, 0)
}

// TestBestThresholdBoundsValidation: a non-finite sweep bound is rejected
// up front, as a non-positive step is — a sweep to +Inf would never end.
func TestBestThresholdBoundsValidation(t *testing.T) {
	for _, b := range [][2]float64{{0, math.Inf(1)}, {0, math.NaN()}, {math.Inf(-1), 1}, {math.NaN(), 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for sweep bounds %v", b)
				}
			}()
			BestThreshold([]float64{1}, []int{1}, b[0], b[1], 0.001)
		}()
	}
}

func TestMeanStd(t *testing.T) {
	m, s := MeanStd([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(m-5) > 1e-12 || math.Abs(s-2) > 1e-12 {
		t.Fatalf("MeanStd = %v %v", m, s)
	}
	if m, s := MeanStd(nil); m != 0 || s != 0 {
		t.Fatal("empty MeanStd should be 0,0")
	}
}

// Property: macro F1 is symmetric under simultaneous label flip of
// predictions and truth.
func TestQuickMacroF1FlipSymmetry(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(50)
		preds := make([]int, n)
		truth := make([]int, n)
		fp := make([]int, n)
		ft := make([]int, n)
		for i := 0; i < n; i++ {
			preds[i] = rng.Intn(2)
			truth[i] = rng.Intn(2)
			fp[i] = 1 - preds[i]
			ft[i] = 1 - truth[i]
		}
		return math.Abs(MacroF1Of(preds, truth)-MacroF1Of(fp, ft)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: accuracy and macro F1 are within [0, 1], and BestThreshold's F1
// is at least the F1 of any fixed threshold probed.
func TestQuickThresholdOptimality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(40)
		scores := make([]float64, n)
		truth := make([]int, n)
		hasBoth := false
		for i := 0; i < n; i++ {
			scores[i] = rng.Float64()
			truth[i] = rng.Intn(2)
		}
		for i := 1; i < n; i++ {
			if truth[i] != truth[0] {
				hasBoth = true
			}
		}
		if !hasBoth {
			return true
		}
		_, bestF1 := BestThreshold(scores, truth, 0, 1, 0.01)
		for th := 0.0; th <= 1.0; th += 0.01 {
			if MacroF1Of(threshold(scores, th), truth) > bestF1+1e-12 {
				return false
			}
		}
		return bestF1 >= 0 && bestF1 <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// threshold applies a score threshold, returning binary predictions
// (score > threshold ⇒ 1) — the rule BestThreshold sweeps.
func threshold(scores []float64, th float64) []int {
	preds := make([]int, len(scores))
	for i, s := range scores {
		if s > th {
			preds[i] = 1
		}
	}
	return preds
}

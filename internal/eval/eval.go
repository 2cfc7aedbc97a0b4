// Package eval implements the evaluation machinery of the paper (§6):
// confusion-matrix metrics with macro-averaged F1 (the headline metric),
// stratified train/test splitting and k-fold cross-validation, and the
// threshold sweep used to pick anomaly thresholds from scores.
package eval

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Confusion is a binary confusion matrix with the anomaly class as
// "positive" (label 1).
type Confusion struct {
	TP, FP, TN, FN int
}

// Observe accumulates one (prediction, truth) pair of binary labels.
func (c *Confusion) Observe(pred, truth int) {
	switch {
	case pred == 1 && truth == 1:
		c.TP++
	case pred == 1 && truth == 0:
		c.FP++
	case pred == 0 && truth == 0:
		c.TN++
	default:
		c.FN++
	}
}

// Total returns the number of observed samples.
func (c *Confusion) Total() int { return c.TP + c.FP + c.TN + c.FN }

// Accuracy returns the fraction of correct predictions.
func (c *Confusion) Accuracy() float64 {
	t := c.Total()
	if t == 0 {
		return 0
	}
	return float64(c.TP+c.TN) / float64(t)
}

// PrecisionRecallF1 returns the precision, recall and F1 of the given class
// (1 = anomalous, 0 = healthy). Undefined ratios are 0.
func (c *Confusion) PrecisionRecallF1(class int) (p, r, f1 float64) {
	var tp, fp, fn float64
	if class == 1 {
		tp, fp, fn = float64(c.TP), float64(c.FP), float64(c.FN)
	} else {
		tp, fp, fn = float64(c.TN), float64(c.FN), float64(c.FP)
	}
	if tp+fp > 0 {
		p = tp / (tp + fp)
	}
	if tp+fn > 0 {
		r = tp / (tp + fn)
	}
	if p+r > 0 {
		f1 = 2 * p * r / (p + r)
	}
	return p, r, f1
}

// MacroF1 returns the unweighted mean of the per-class F1 scores — the
// metric the paper reports throughout ("F1-score refers to the macro
// average F1-score", §6).
func (c *Confusion) MacroF1() float64 {
	_, _, f1a := c.PrecisionRecallF1(1)
	_, _, f1h := c.PrecisionRecallF1(0)
	return (f1a + f1h) / 2
}

// String renders the matrix compactly.
func (c *Confusion) String() string {
	return fmt.Sprintf("TP=%d FP=%d TN=%d FN=%d acc=%.3f macroF1=%.3f",
		c.TP, c.FP, c.TN, c.FN, c.Accuracy(), c.MacroF1())
}

// Evaluate builds a confusion matrix from parallel prediction/truth slices.
// It panics if lengths differ.
func Evaluate(preds, truth []int) *Confusion {
	if len(preds) != len(truth) {
		panic(fmt.Sprintf("eval: %d predictions for %d labels", len(preds), len(truth)))
	}
	c := &Confusion{}
	for i := range preds {
		c.Observe(preds[i], truth[i])
	}
	return c
}

// MacroF1Of is a convenience wrapper returning the macro F1 of predictions
// against truth.
func MacroF1Of(preds, truth []int) float64 { return Evaluate(preds, truth).MacroF1() }

// StratifiedSplit partitions sample indices into a train and test set with
// the requested train fraction, preserving the label distribution (paper
// §5.4.2: "we split (20-80%) the data while maintaining the distribution of
// both normal and anomalous samples"). The split is deterministic for a
// given rng state.
func StratifiedSplit(labels []int, trainFrac float64, rng *rand.Rand) (train, test []int) {
	byClass := map[int][]int{}
	for i, y := range labels {
		byClass[y] = append(byClass[y], i)
	}
	classes := make([]int, 0, len(byClass))
	for y := range byClass {
		classes = append(classes, y)
	}
	sort.Ints(classes)
	for _, y := range classes {
		idx := byClass[y]
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		n := int(float64(len(idx))*trainFrac + 0.5)
		train = append(train, idx[:n]...)
		test = append(test, idx[n:]...)
	}
	rng.Shuffle(len(train), func(i, j int) { train[i], train[j] = train[j], train[i] })
	rng.Shuffle(len(test), func(i, j int) { test[i], test[j] = test[j], test[i] })
	return train, test
}

// Fold is one cross-validation fold: index sets into the original data.
type Fold struct {
	Train, Test []int
}

// KFold returns k stratified folds over the given labels. Every sample
// appears in exactly one test set. It panics for k < 2 or k larger than the
// smallest class.
func KFold(labels []int, k int, rng *rand.Rand) []Fold {
	if k < 2 {
		panic("eval: KFold needs k >= 2")
	}
	byClass := map[int][]int{}
	for i, y := range labels {
		byClass[y] = append(byClass[y], i)
	}
	classes := make([]int, 0, len(byClass))
	for y := range byClass {
		if len(byClass[y]) < k {
			panic(fmt.Sprintf("eval: class %d has %d samples for %d folds", y, len(byClass[y]), k))
		}
		classes = append(classes, y)
	}
	sort.Ints(classes)

	testSets := make([][]int, k)
	for _, y := range classes {
		idx := byClass[y]
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for i, sample := range idx {
			f := i % k
			testSets[f] = append(testSets[f], sample)
		}
	}
	folds := make([]Fold, k)
	for f := 0; f < k; f++ {
		inTest := make(map[int]bool, len(testSets[f]))
		for _, i := range testSets[f] {
			inTest[i] = true
		}
		var train []int
		for i := range labels {
			if !inTest[i] {
				train = append(train, i)
			}
		}
		folds[f] = Fold{Train: train, Test: testSets[f]}
	}
	return folds
}

// BestThreshold sweeps candidate thresholds over scores and returns the one
// maximizing macro F1 against truth, along with that F1. Scores above the
// threshold predict anomalous. This mirrors §5.4.4: "We iterate through
// possible values between 0 and 1 with 0.001 increments and select the
// threshold that results in the highest F1-score."
//
// lo, hi and step define the sweep and must be finite, with step > 0;
// scores outside [lo, hi] are handled by the boundary thresholds.
func BestThreshold(scores []float64, truth []int, lo, hi, step float64) (best float64, bestF1 float64) {
	if len(scores) != len(truth) {
		panic("eval: scores/truth length mismatch")
	}
	if step <= 0 {
		panic("eval: step must be positive")
	}
	if math.IsNaN(lo) || math.IsInf(lo, 0) || math.IsNaN(hi) || math.IsInf(hi, 0) {
		panic("eval: sweep bounds must be finite")
	}
	best, bestF1 = lo, -1
	preds := make([]int, len(scores))
	for th := lo; th <= hi+1e-12; th += step {
		for i, s := range scores {
			if s > th {
				preds[i] = 1
			} else {
				preds[i] = 0
			}
		}
		if f1 := MacroF1Of(preds, truth); f1 > bestF1 {
			bestF1 = f1
			best = th
		}
	}
	return best, bestF1
}

// AUC returns the area under the ROC curve for anomaly scores against
// binary truth (1 = anomalous), computed rank-based (the Mann-Whitney U
// statistic): the probability a random anomalous sample outscores a
// random healthy one, with tied scores counted half — midranks, so
// score distributions with plateaus (the cascade's cleared band) are
// handled exactly. Returns 0.5 when either class is absent, the
// no-information value.
func AUC(scores []float64, truth []int) float64 {
	if len(scores) != len(truth) {
		panic("eval: scores/truth length mismatch")
	}
	type pair struct {
		s float64
		y int
	}
	pairs := make([]pair, len(scores))
	pos, neg := 0, 0
	for i, s := range scores {
		pairs[i] = pair{s, truth[i]}
		if truth[i] == 1 {
			pos++
		} else {
			neg++
		}
	}
	if pos == 0 || neg == 0 {
		return 0.5
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].s < pairs[j].s })
	// Sum of midranks over the anomalous samples; ties share the average
	// rank of their run.
	rankSum := 0.0
	for i := 0; i < len(pairs); {
		j := i
		//lint:ignore floateq midrank tie runs are exact-equality by definition — a tolerance would merge distinct scores and shift ranks
		for j < len(pairs) && pairs[j].s == pairs[i].s {
			j++
		}
		mid := float64(i+j+1) / 2 // average of 1-based ranks i+1..j
		for k := i; k < j; k++ {
			if pairs[k].y == 1 {
				rankSum += mid
			}
		}
		i = j
	}
	u := rankSum - float64(pos)*float64(pos+1)/2
	return u / (float64(pos) * float64(neg))
}

// MeanStd returns the mean and population standard deviation of xs,
// convenient for reporting "average F1 over 5-fold CV".
func MeanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, v := range xs {
		mean += v
	}
	mean /= float64(len(xs))
	for _, v := range xs {
		d := v - mean
		std += d * d
	}
	std /= float64(len(xs))
	return mean, math.Sqrt(std)
}

// Package comte implements CoMTE — Counterfactual Explanations for
// Multivariate Time Series (Ates et al., ICAPAI 2021) — as the paper
// applies it to anomaly detection (§4.4): given a sample classified as
// anomalous, find (1) a distractor, a healthy training sample, and (2) the
// minimum set of metrics to substitute from the distractor so that the
// prediction flips to healthy. The substituted metrics *are* the
// explanation — e.g. {MemFree::meminfo, pgrotated::vmstat} for a memory
// leak.
//
// Prodigy classifies feature vectors rather than raw series, so a "metric"
// here is the group of all features extracted from that metric's time
// series; substituting a metric swaps its whole feature group. The search
// is the original implementation's OptimizedSearch (greedy with random
// restarts), adapted for threshold-based models as §5.4.4 describes; the
// exact, exponential brute-force search it approximates lives in the
// tests as the reference.
package comte

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"prodigy/internal/mat"
)

// Classifier is the model contract CoMTE needs: binary predictions over
// full-feature-space vectors (1 = anomalous).
type Classifier interface {
	Predict(x *mat.Matrix) ([]int, []float64)
}

// Explanation is a counterfactual: substituting Metrics from the
// distractor into the explained sample flips its prediction to healthy.
type Explanation struct {
	// Metrics to substitute, e.g. ["MemFree::meminfo", "pgrotated::vmstat"].
	Metrics []string
	// DistractorIndex is the row of the training pool used as distractor.
	DistractorIndex int
	// ScoreBefore/ScoreAfter are the model scores before and after the
	// substitution.
	ScoreBefore, ScoreAfter float64
}

// Config tunes the search.
type Config struct {
	// MaxMetrics bounds explanation size (default 3).
	MaxMetrics int
	// NumDistractors is how many nearest healthy samples to try (default 3).
	NumDistractors int
	// Restarts for OptimizedSearch random restarts (default 5).
	Restarts int
	// Seed drives OptimizedSearch randomness.
	Seed int64
}

// DefaultConfig returns the defaults used by the deployment.
func DefaultConfig() Config {
	return Config{MaxMetrics: 3, NumDistractors: 3, Restarts: 5, Seed: 1}
}

// Explainer holds the model, the healthy training pool (distractor
// candidates) and the metric → feature-column grouping.
type Explainer struct {
	Clf Classifier
	// Pool is the healthy training data in the full feature space.
	Pool *mat.Matrix
	// Groups maps metric name to its feature column indices.
	Groups map[string][]int
	Cfg    Config

	metricNames []string
}

// GroupByMetric derives the metric → columns mapping from feature names of
// the form "<metric>__<feature>".
func GroupByMetric(featureNames []string) map[string][]int {
	groups := make(map[string][]int)
	for i, n := range featureNames {
		metric := n
		if k := strings.Index(n, "__"); k >= 0 {
			metric = n[:k]
		}
		groups[metric] = append(groups[metric], i)
	}
	return groups
}

// New constructs an explainer. featureNames must match the pool's columns.
func New(clf Classifier, pool *mat.Matrix, featureNames []string, cfg Config) (*Explainer, error) {
	if pool.Rows == 0 {
		return nil, fmt.Errorf("comte: empty distractor pool")
	}
	if len(featureNames) != pool.Cols {
		return nil, fmt.Errorf("comte: %d feature names for %d columns", len(featureNames), pool.Cols)
	}
	if cfg.MaxMetrics <= 0 {
		cfg.MaxMetrics = 3
	}
	if cfg.NumDistractors <= 0 {
		cfg.NumDistractors = 3
	}
	if cfg.Restarts <= 0 {
		cfg.Restarts = 5
	}
	groups := GroupByMetric(featureNames)
	names := make([]string, 0, len(groups))
	for m := range groups {
		names = append(names, m)
	}
	sort.Strings(names)
	return &Explainer{Clf: clf, Pool: pool, Groups: groups, Cfg: cfg, metricNames: names}, nil
}

// nearestDistractors returns the indices of the NumDistractors pool rows
// closest to x (the original CoMTE heuristic: good distractors are close).
func (e *Explainer) nearestDistractors(x []float64) []int {
	type cand struct {
		idx  int
		dist float64
	}
	cands := make([]cand, e.Pool.Rows)
	for i := 0; i < e.Pool.Rows; i++ {
		cands[i] = cand{idx: i, dist: mat.EuclideanDistance(x, e.Pool.Row(i))}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].dist != cands[b].dist {
			return cands[a].dist < cands[b].dist
		}
		return cands[a].idx < cands[b].idx
	})
	n := e.Cfg.NumDistractors
	if n > len(cands) {
		n = len(cands)
	}
	out := make([]int, n)
	for i := 0; i < n; i++ {
		out[i] = cands[i].idx
	}
	return out
}

// substitute returns a copy of x with the given metrics' feature groups
// replaced by the distractor's values.
func (e *Explainer) substitute(x []float64, distractor []float64, metrics []string) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	for _, m := range metrics {
		for _, col := range e.Groups[m] {
			out[col] = distractor[col]
		}
	}
	return out
}

// classify returns (isAnomalous, score) for a single vector.
func (e *Explainer) classify(x []float64) (bool, float64) {
	preds, scores := e.Clf.Predict(mat.NewFromData(1, len(x), x))
	return preds[0] == 1, scores[0]
}

// RankByImpact orders an explanation's metrics by how much substituting
// each one alone (from the explanation's distractor) reduces the model
// score — the most influential metric first. This is how the deployment
// reports "the top two metrics CoMTE returned" (§6.2).
func (e *Explainer) RankByImpact(x []float64, expl *Explanation) []string {
	d := e.Pool.Row(expl.DistractorIndex)
	type impact struct {
		metric string
		score  float64
	}
	impacts := make([]impact, len(expl.Metrics))
	for i, m := range expl.Metrics {
		_, after := e.classify(e.substitute(x, d, []string{m}))
		impacts[i] = impact{metric: m, score: after}
	}
	sort.Slice(impacts, func(a, b int) bool {
		if impacts[a].score != impacts[b].score {
			return impacts[a].score < impacts[b].score
		}
		return impacts[a].metric < impacts[b].metric
	})
	out := make([]string, len(impacts))
	for i, im := range impacts {
		out[i] = im.metric
	}
	return out
}

// OptimizedSearch runs greedy shrinking with random restarts: start from
// the full substitution (which flips the prediction if any explanation
// exists for that distractor), then repeatedly drop metrics whose removal
// keeps the prediction healthy. Much faster than brute force for large
// metric counts; returns the smallest explanation found across restarts
// and distractors.
func (e *Explainer) OptimizedSearch(x []float64) (*Explanation, error) {
	anom, before := e.classify(x)
	if !anom {
		return nil, fmt.Errorf("comte: sample is already classified healthy")
	}
	rng := rand.New(rand.NewSource(e.Cfg.Seed))
	var best *Explanation
	for _, di := range e.nearestDistractors(x) {
		d := e.Pool.Row(di)
		// Full substitution must flip; otherwise this distractor is useless.
		if anomFull, _ := e.classify(e.substitute(x, d, e.metricNames)); anomFull {
			continue
		}
		for r := 0; r < e.Cfg.Restarts; r++ {
			keep := make([]string, len(e.metricNames))
			copy(keep, e.metricNames)
			rng.Shuffle(len(keep), func(i, j int) { keep[i], keep[j] = keep[j], keep[i] })
			// Greedily try to drop each metric.
			for i := 0; i < len(keep); {
				trial := make([]string, 0, len(keep)-1)
				trial = append(trial, keep[:i]...)
				trial = append(trial, keep[i+1:]...)
				if anomT, _ := e.classify(e.substitute(x, d, trial)); !anomT {
					keep = trial // dropping metric i keeps the flip
				} else {
					i++
				}
			}
			if best == nil || len(keep) < len(best.Metrics) {
				_, after := e.classify(e.substitute(x, d, keep))
				sorted := make([]string, len(keep))
				copy(sorted, keep)
				sort.Strings(sorted)
				best = &Explanation{Metrics: sorted, DistractorIndex: di, ScoreBefore: before, ScoreAfter: after}
			}
			if len(best.Metrics) == 1 {
				return best, nil // cannot do better
			}
		}
	}
	if best == nil {
		return nil, fmt.Errorf("comte: no distractor flips the prediction")
	}
	if len(best.Metrics) > e.Cfg.MaxMetrics {
		// Report it anyway but flag the size; callers may still find a
		// larger-than-requested explanation useful.
		return best, fmt.Errorf("comte: smallest explanation has %d metrics (max %d)", len(best.Metrics), e.Cfg.MaxMetrics)
	}
	return best, nil
}

// Package iforest implements the Isolation Forest baseline (Liu, Ting &
// Zhou 2008) used by the paper (§5.3): an ensemble of random isolation
// trees where anomalies, being few and different, are isolated in fewer
// random splits. Following the paper's setup, the maximum sub-sample size
// is 100 and the contamination ratio drives the decision threshold.
package iforest

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"prodigy/internal/mat"
)

// Config holds the forest hyperparameters. The defaults mirror
// scikit-learn's with the paper's max sample size of 100.
type Config struct {
	NumTrees      int     `json:"num_trees"`
	MaxSamples    int     `json:"max_samples"`
	Contamination float64 `json:"contamination"`
	Seed          int64   `json:"seed"`
}

// DefaultConfig returns the paper's configuration: 100 trees, sub-samples
// of 100, contamination 10%.
func DefaultConfig() Config {
	return Config{NumTrees: 100, MaxSamples: 100, Contamination: 0.1, Seed: 1}
}

// node is one isolation-tree node; leaves have feature == -1.
type node struct {
	feature     int
	split       float64
	size        int // samples that reached this node (leaves only)
	left, right *node
}

// Forest is a fitted isolation forest.
type Forest struct {
	Cfg       Config
	trees     []*node
	subsample int
	threshold float64
}

// New returns an unfitted forest.
func New(cfg Config) (*Forest, error) {
	if cfg.NumTrees <= 0 {
		return nil, fmt.Errorf("iforest: num trees %d", cfg.NumTrees)
	}
	if cfg.MaxSamples <= 1 {
		return nil, fmt.Errorf("iforest: max samples %d", cfg.MaxSamples)
	}
	if cfg.Contamination < 0 || cfg.Contamination > 0.5 {
		return nil, fmt.Errorf("iforest: contamination %v outside [0, 0.5]", cfg.Contamination)
	}
	return &Forest{Cfg: cfg}, nil
}

// Fit builds the ensemble on x and calibrates the decision threshold so
// that the configured contamination fraction of training samples scores as
// anomalous.
func (f *Forest) Fit(x *mat.Matrix) error {
	if x.Rows == 0 {
		return errors.New("iforest: empty training set")
	}
	rng := rand.New(rand.NewSource(f.Cfg.Seed))
	f.subsample = f.Cfg.MaxSamples
	if f.subsample > x.Rows {
		f.subsample = x.Rows
	}
	maxDepth := int(math.Ceil(math.Log2(float64(f.subsample))))
	f.trees = make([]*node, f.Cfg.NumTrees)
	for t := 0; t < f.Cfg.NumTrees; t++ {
		idx := make([]int, f.subsample)
		for i := range idx {
			idx[i] = rng.Intn(x.Rows)
		}
		f.trees[t] = buildTree(x, idx, 0, maxDepth, rng)
	}
	// Calibrate threshold from training scores.
	scores := f.Scores(x)
	f.threshold = mat.Percentile(scores, 100*(1-f.Cfg.Contamination))
	return nil
}

// buildTree recursively partitions idx with uniformly random splits.
func buildTree(x *mat.Matrix, idx []int, depth, maxDepth int, rng *rand.Rand) *node {
	if len(idx) <= 1 || depth >= maxDepth {
		return &node{feature: -1, size: len(idx)}
	}
	// Pick a feature with spread; give up after a few tries (constant data).
	for attempt := 0; attempt < 8; attempt++ {
		feat := rng.Intn(x.Cols)
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, i := range idx {
			v := x.At(i, feat)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if hi <= lo {
			continue
		}
		split := lo + rng.Float64()*(hi-lo)
		var left, right []int
		for _, i := range idx {
			if x.At(i, feat) < split {
				left = append(left, i)
			} else {
				right = append(right, i)
			}
		}
		if len(left) == 0 || len(right) == 0 {
			continue
		}
		return &node{
			feature: feat,
			split:   split,
			left:    buildTree(x, left, depth+1, maxDepth, rng),
			right:   buildTree(x, right, depth+1, maxDepth, rng),
		}
	}
	return &node{feature: -1, size: len(idx)}
}

// pathLength returns the isolation depth of sample row in the tree, with
// the standard c(size) adjustment at leaves holding multiple samples.
func pathLength(n *node, row []float64, depth float64) float64 {
	if n.feature == -1 {
		return depth + avgPathLength(n.size)
	}
	if row[n.feature] < n.split {
		return pathLength(n.left, row, depth+1)
	}
	return pathLength(n.right, row, depth+1)
}

// avgPathLength is c(n), the average unsuccessful-search path length in a
// BST of n nodes.
func avgPathLength(n int) float64 {
	if n <= 1 {
		return 0
	}
	h := math.Log(float64(n-1)) + 0.5772156649 // harmonic number approximation
	return 2*h - 2*float64(n-1)/float64(n)
}

// Scores returns the anomaly score s(x) = 2^(−E[h(x)]/c(ψ)) for each row;
// scores near 1 indicate anomalies, near 0.5 and below indicate normal
// points.
func (f *Forest) Scores(x *mat.Matrix) []float64 {
	if f.trees == nil {
		panic("iforest: Scores before Fit")
	}
	c := avgPathLength(f.subsample)
	out := make([]float64, x.Rows)
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		total := 0.0
		for _, t := range f.trees {
			total += pathLength(t, row, 0)
		}
		mean := total / float64(len(f.trees))
		if c > 0 {
			out[i] = math.Pow(2, -mean/c)
		} else {
			out[i] = 0.5
		}
	}
	return out
}

// Predict returns binary labels (1 = anomalous) using the threshold
// calibrated during Fit.
func (f *Forest) Predict(x *mat.Matrix) []int {
	scores := f.Scores(x)
	out := make([]int, len(scores))
	for i, s := range scores {
		if s > f.threshold {
			out[i] = 1
		}
	}
	return out
}

// Package lof implements the Local Outlier Factor baseline (Breunig et al.
// 2000) used by the paper (§5.3): density-based outlier scoring where a
// point whose local density is much lower than its neighbours' is an
// outlier. The implementation supports novelty detection — fitting on a
// training set and scoring unseen points against it — which is how the
// paper applies it to a held-out test set.
package lof

import (
	"errors"
	"fmt"
	"sort"

	"prodigy/internal/mat"
)

// Config holds LOF hyperparameters. Defaults match scikit-learn:
// 20 neighbours, contamination 10% (the paper's setting).
type Config struct {
	K             int     `json:"k"`
	Contamination float64 `json:"contamination"`
}

// DefaultConfig returns the paper's configuration.
func DefaultConfig() Config { return Config{K: 20, Contamination: 0.1} }

// LOF is a fitted local-outlier-factor model.
type LOF struct {
	Cfg       Config
	train     *mat.Matrix
	kDist     []float64 // k-distance of each training point
	lrd       []float64 // local reachability density of each training point
	neighbors [][]int   // k nearest training neighbours of each training point
	threshold float64
}

// New returns an unfitted model.
func New(cfg Config) (*LOF, error) {
	if cfg.K < 1 {
		return nil, fmt.Errorf("lof: k = %d", cfg.K)
	}
	if cfg.Contamination < 0 || cfg.Contamination > 0.5 {
		return nil, fmt.Errorf("lof: contamination %v outside [0, 0.5]", cfg.Contamination)
	}
	return &LOF{Cfg: cfg}, nil
}

// neighbour is a (distance, index) pair.
type neighbour struct {
	dist float64
	idx  int
}

// kNearest returns the k nearest rows of train to point, excluding the row
// index skip (pass -1 to keep all).
func (l *LOF) kNearest(point []float64, skip int) []neighbour {
	n := l.train.Rows
	ns := make([]neighbour, 0, n)
	for i := 0; i < n; i++ {
		if i == skip {
			continue
		}
		ns = append(ns, neighbour{dist: mat.EuclideanDistance(point, l.train.Row(i)), idx: i})
	}
	sort.Slice(ns, func(a, b int) bool {
		if ns[a].dist != ns[b].dist {
			return ns[a].dist < ns[b].dist
		}
		return ns[a].idx < ns[b].idx
	})
	k := l.Cfg.K
	if k > len(ns) {
		k = len(ns)
	}
	return ns[:k]
}

// Fit computes training-set k-distances and local reachability densities,
// then calibrates the decision threshold from the contamination ratio.
func (l *LOF) Fit(x *mat.Matrix) error {
	if x.Rows <= l.Cfg.K {
		return fmt.Errorf("lof: %d samples for k=%d", x.Rows, l.Cfg.K)
	}
	if x.Rows == 0 {
		return errors.New("lof: empty training set")
	}
	l.train = x.Clone()
	n := x.Rows
	l.kDist = make([]float64, n)
	l.neighbors = make([][]int, n)
	reachSums := make([]float64, n)

	// Pass 1: neighbours and k-distances.
	allNeighbours := make([][]neighbour, n)
	for i := 0; i < n; i++ {
		ns := l.kNearest(l.train.Row(i), i)
		allNeighbours[i] = ns
		l.kDist[i] = ns[len(ns)-1].dist
		idx := make([]int, len(ns))
		for j, nb := range ns {
			idx[j] = nb.idx
		}
		l.neighbors[i] = idx
	}
	// Pass 2: local reachability density,
	// lrd(p) = 1 / mean(reach-dist_k(p, o)) over neighbours o,
	// reach-dist_k(p, o) = max(k-distance(o), d(p, o)).
	l.lrd = make([]float64, n)
	for i := 0; i < n; i++ {
		sum := 0.0
		for _, nb := range allNeighbours[i] {
			rd := nb.dist
			if l.kDist[nb.idx] > rd {
				rd = l.kDist[nb.idx]
			}
			sum += rd
		}
		reachSums[i] = sum
		if sum == 0 {
			l.lrd[i] = 1e12 // duplicated points: effectively infinite density
		} else {
			l.lrd[i] = float64(len(allNeighbours[i])) / sum
		}
	}
	// Calibrate the threshold from training LOF scores.
	trainScores := make([]float64, n)
	for i := 0; i < n; i++ {
		trainScores[i] = l.scoreKnown(i, allNeighbours[i])
	}
	l.threshold = mat.Percentile(trainScores, 100*(1-l.Cfg.Contamination))
	return nil
}

// scoreKnown computes the LOF of training point i given its neighbour list.
func (l *LOF) scoreKnown(i int, ns []neighbour) float64 {
	sum := 0.0
	for _, nb := range ns {
		sum += l.lrd[nb.idx]
	}
	if l.lrd[i] == 0 || len(ns) == 0 {
		return 1
	}
	return sum / float64(len(ns)) / l.lrd[i]
}

// Scores returns the LOF of each row of x measured against the training
// set (novelty mode). Values near 1 indicate inliers; larger values
// indicate outliers.
func (l *LOF) Scores(x *mat.Matrix) []float64 {
	if l.train == nil {
		panic("lof: Scores before Fit")
	}
	out := make([]float64, x.Rows)
	for i := 0; i < x.Rows; i++ {
		point := x.Row(i)
		ns := l.kNearest(point, -1)
		// lrd of the query point.
		sum := 0.0
		for _, nb := range ns {
			rd := nb.dist
			if l.kDist[nb.idx] > rd {
				rd = l.kDist[nb.idx]
			}
			sum += rd
		}
		var lrdP float64
		if sum == 0 {
			lrdP = 1e12
		} else {
			lrdP = float64(len(ns)) / sum
		}
		nSum := 0.0
		for _, nb := range ns {
			nSum += l.lrd[nb.idx]
		}
		if lrdP == 0 || len(ns) == 0 {
			out[i] = 1
		} else {
			out[i] = nSum / float64(len(ns)) / lrdP
		}
	}
	return out
}

// Predict returns binary labels (1 = anomalous) using the calibrated
// threshold.
func (l *LOF) Predict(x *mat.Matrix) []int {
	scores := l.Scores(x)
	out := make([]int, len(scores))
	for i, s := range scores {
		if s > l.threshold {
			out[i] = 1
		}
	}
	return out
}

// Package diagnose classifies the *type* of a detected anomaly — the
// diagnosis step the paper's companion frameworks perform downstream of
// detection (E2EWatch and ALBADross in §2.1: "train a supervised classifier
// to determine the anomaly types"). Prodigy itself stops at binary
// detection; this package adds the missing triage step using the small
// pool of labeled anomalous samples the feature-selection stage already
// requires (§5.4.3), so no new labeling burden is introduced.
//
// The classifier is distance-based (k-nearest-neighbour over min-max
// scaled selected features) rather than a trained model: with only dozens
// of labeled anomalies per type, k-NN is both the strongest and the
// simplest honest choice, and its confidences are interpretable (vote
// fractions).
package diagnose

import (
	"fmt"
	"sort"

	"prodigy/internal/mat"
	"prodigy/internal/pipeline"
	"prodigy/internal/scale"
)

// Diagnosis is one classification outcome.
type Diagnosis struct {
	// Type is the most likely anomaly type, e.g. "memleak".
	Type string
	// Confidence is the winning vote fraction in [0, 1].
	Confidence float64
	// Votes maps each candidate type to its vote fraction.
	Votes map[string]float64
}

// Classifier is a fitted anomaly-type classifier.
type Classifier struct {
	K int

	scaler    scale.Scaler
	exemplars *mat.Matrix
	types     []string
	typeSet   []string
}

// New fits a k-NN classifier on the anomalous samples of ds (healthy
// samples are ignored). ds must be in the full feature space; pass the
// same dataset used for feature selection.
func New(ds *pipeline.Dataset, k int) (*Classifier, error) {
	if k < 1 {
		return nil, fmt.Errorf("diagnose: k = %d", k)
	}
	anomIdx := ds.AnomalousIndices()
	if len(anomIdx) == 0 {
		return nil, fmt.Errorf("diagnose: no labeled anomalous samples to learn types from")
	}
	if k > len(anomIdx) {
		k = len(anomIdx)
	}
	anom := ds.Subset(anomIdx)
	types := make([]string, anom.Len())
	seen := map[string]bool{}
	for i, m := range anom.Meta {
		types[i] = m.Anomaly
		seen[m.Anomaly] = true
	}
	if len(seen) < 2 {
		return nil, fmt.Errorf("diagnose: only %d anomaly type(s) labeled; diagnosis needs at least 2", len(seen))
	}
	typeSet := make([]string, 0, len(seen))
	for t := range seen {
		typeSet = append(typeSet, t)
	}
	sort.Strings(typeSet)

	sc := scale.NewMinMax()
	scaled := scale.FitTransform(sc, anom.X)
	return &Classifier{K: k, scaler: sc, exemplars: scaled, types: types, typeSet: typeSet}, nil
}

// Types returns the known anomaly types, sorted.
func (c *Classifier) Types() []string { return c.typeSet }

// Classify diagnoses one sample (full feature space). Call it only for
// samples the detector already flagged; diagnosing healthy samples yields
// the type of whatever anomaly cluster happens to be nearest.
func (c *Classifier) Classify(vec []float64) (*Diagnosis, error) {
	if len(vec) != c.exemplars.Cols {
		return nil, fmt.Errorf("diagnose: sample has %d features, classifier expects %d", len(vec), c.exemplars.Cols)
	}
	x := c.scaler.TransformInto(&mat.Matrix{}, mat.NewFromData(1, len(vec), vec)).Row(0)
	type cand struct {
		dist float64
		typ  string
	}
	cands := make([]cand, c.exemplars.Rows)
	for i := 0; i < c.exemplars.Rows; i++ {
		cands[i] = cand{dist: mat.EuclideanDistance(x, c.exemplars.Row(i)), typ: c.types[i]}
	}
	sort.SliceStable(cands, func(a, b int) bool { return cands[a].dist < cands[b].dist })

	votes := map[string]float64{}
	for _, t := range c.typeSet {
		votes[t] = 0
	}
	for i := 0; i < c.K; i++ {
		votes[cands[i].typ] += 1 / float64(c.K)
	}
	best, bestV := "", -1.0
	for _, t := range c.typeSet {
		if votes[t] > bestV {
			best, bestV = t, votes[t]
		}
	}
	return &Diagnosis{Type: best, Confidence: bestV, Votes: votes}, nil
}

package core

import (
	"math"
	"testing"
)

// TestSweepThresholdNonFiniteScores pins the threshold sweep against
// non-finite scores: a +Inf row must not become the sweep's top, since a
// sweep to +Inf never ends, while the NaN and +Inf rows still take part
// in every F1.
func TestSweepThresholdNonFiniteScores(t *testing.T) {
	scores := []float64{0.1, 0.2, 0.15, 1.4, 1.6, math.Inf(1), math.NaN()}
	truth := []int{0, 0, 0, 1, 1, 1, 0}
	maxFinite := 1.6
	th := sweepThreshold(scores, truth)
	if math.IsNaN(th) || math.IsInf(th, 0) || th < 0 || th > maxFinite {
		t.Fatalf("threshold %v, want finite in [0, %v]", th, maxFinite)
	}
	// The F1-best cut separates the healthy 0.2 from the anomalous 1.4.
	if th < 0.2 || th >= 1.4 {
		t.Fatalf("threshold %v does not separate the classes", th)
	}
}

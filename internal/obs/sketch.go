package obs

import (
	"math"
	"sync/atomic"
)

// Sketch is a fixed-memory streaming distribution sketch over the
// positive real axis, built for anomaly scores: Observe is one atomic add
// into a geometric bin, so per-row scoring instrumentation costs nothing
// measurable and allocates nothing. sketchBins geometric bins span
// [sketchMin, sketchMax) at a ratio of ~18% per bin — plenty for
// distribution-shift detection, where the question is "did the whole CDF
// move", not "what is the 7th decimal of p99".
//
// A Sketch is safe for concurrent Observe/Snapshot from any
// number of goroutines. Snapshots share the fixed bin layout, so two
// sketches (or a sketch and a snapshot taken earlier) are directly
// comparable bin-by-bin — the property the score-distribution-shift alert
// is built on (drift.KSFromCounts).
type Sketch struct {
	// counts[0] is the underflow bin (v < sketchMin, including zero and
	// negatives); counts[1..sketchBins] are the geometric bins;
	// counts[sketchBins+1] is the overflow bin (v >= sketchMax).
	counts [sketchBins + 2]atomic.Uint64
}

const (
	// sketchBins geometric bins between sketchMin and sketchMax. Anomaly
	// scores (reconstruction MAE on scaled features) live around 1e-3..3;
	// the range leaves three decades of headroom on each side.
	sketchBins = 128
	sketchMin  = 1e-6
	sketchMax  = 1e3
)

// sketchRatio is the per-bin geometric growth factor:
// sketchMin * sketchRatio^sketchBins == sketchMax.
var (
	sketchLogRatio = math.Log(sketchMax/sketchMin) / sketchBins
	sketchInvRatio = 1 / sketchLogRatio
)

// NewSketch returns an empty sketch.
func NewSketch() *Sketch { return &Sketch{} }

// sketchBinOf maps a value to its bin index in [0, sketchBins+1].
func sketchBinOf(v float64) int {
	if !(v >= sketchMin) { // negatives, zero, NaN: underflow
		return 0
	}
	if v >= sketchMax {
		return sketchBins + 1
	}
	b := int(math.Log(v/sketchMin)*sketchInvRatio) + 1
	if b < 1 {
		b = 1
	}
	if b > sketchBins {
		b = sketchBins
	}
	return b
}

// Observe records one value: one atomic add, no allocation.
func (s *Sketch) Observe(v float64) {
	s.counts[sketchBinOf(v)].Add(1)
}

// Snapshot copies the sketch's counts into an immutable snapshot. The
// copy is not atomic across bins — observations landing mid-copy may be
// split — which shifts the CDF by at most a few counts and does not
// matter at the sample sizes where a snapshot is meaningful.
func (s *Sketch) Snapshot() *SketchSnapshot {
	snap := &SketchSnapshot{}
	var total uint64
	for i := range s.counts {
		c := s.counts[i].Load()
		snap.Counts[i] = c
		total += c
	}
	snap.Total = total
	return snap
}

// SketchSnapshot is a frozen copy of a Sketch's bins: the baseline the
// score-distribution-shift alert compares live scoring against. All
// snapshots share the package-fixed bin layout.
type SketchSnapshot struct {
	Counts [sketchBins + 2]uint64
	Total  uint64
}

// CountsSlice returns the bin counts as a slice (for KS comparison via
// drift.KSFromCounts, which wants plain slices).
func (s *SketchSnapshot) CountsSlice() []uint64 { return s.Counts[:] }

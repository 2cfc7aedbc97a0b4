package obs

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// sketchBound returns the upper bound of bin i (1-based geometric bins).
func sketchBound(i int) float64 {
	return sketchMin * math.Exp(float64(i)*sketchLogRatio)
}

// quantile is the reference estimator the bin layout is checked with:
// the q-quantile of a snapshot by geometric interpolation within the
// containing bin. Underflow observations report as sketchMin, overflow as
// sketchMax; an empty snapshot reports 0.
func quantile(s *SketchSnapshot, q float64) float64 {
	if s.Total == 0 {
		return 0
	}
	rank := q * float64(s.Total)
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		if float64(cum) >= rank {
			switch i {
			case 0:
				return sketchMin
			case sketchBins + 1:
				return sketchMax
			}
			lo := sketchBound(i - 1)
			hi := sketchBound(i)
			if c == 0 {
				return hi
			}
			frac := (rank - float64(cum-c)) / float64(c)
			// Geometric interpolation matches the bin spacing.
			return lo * math.Exp(frac*math.Log(hi/lo))
		}
	}
	return sketchMax
}

// TestSketchQuantileUniform checks the geometric-bin estimate against the
// true quantiles of a uniform distribution: the documented relative error
// bound is one bin ratio (~18%); quantiles near the distribution's hard
// upper edge hit the worst case, mid-distribution ones do far better.
func TestSketchQuantileUniform(t *testing.T) {
	s := NewSketch()
	rng := rand.New(rand.NewSource(42))
	const n = 200000
	for i := 0; i < n; i++ {
		s.Observe(0.1 + 0.9*rng.Float64()) // uniform on [0.1, 1.0)
	}
	if got := s.Snapshot().Total; got != n {
		t.Fatalf("count = %d, want %d", got, n)
	}
	for _, tc := range []struct{ q, want, tol float64 }{
		{0.5, 0.55, 0.06}, {0.9, 0.91, 0.06}, {0.95, 0.955, 0.10}, {0.99, 0.991, 0.18},
	} {
		got := quantile(s.Snapshot(), tc.q)
		if rel := math.Abs(got-tc.want) / tc.want; rel > tc.tol {
			t.Errorf("p%v = %v, want %v ±%.0f%% (rel err %.3f)", tc.q*100, got, tc.want, tc.tol*100, rel)
		}
	}
}

// TestSketchQuantileExponential exercises a heavy-ish tail spanning
// several decades, which is what the geometric bins are for.
func TestSketchQuantileExponential(t *testing.T) {
	s := NewSketch()
	rng := rand.New(rand.NewSource(7))
	const n = 200000
	for i := 0; i < n; i++ {
		s.Observe(rng.ExpFloat64() * 0.1) // mean 0.1
	}
	// True quantiles of Exp(mean 0.1): -0.1*ln(1-q).
	for _, q := range []float64{0.5, 0.9, 0.99} {
		want := -0.1 * math.Log(1-q)
		got := quantile(s.Snapshot(), q)
		if rel := math.Abs(got-want) / want; rel > 0.08 {
			t.Errorf("p%v = %v, want %v ±8%% (rel err %.3f)", q*100, got, want, rel)
		}
	}
}

// TestSketchEdges pins the out-of-range contracts: empty sketch, values
// below/at zero (underflow bin, reported as sketchMin) and values beyond
// the top of the range (overflow bin, reported as sketchMax).
func TestSketchEdges(t *testing.T) {
	s := NewSketch()
	if q := quantile(s.Snapshot(), 0.5); q != 0 {
		t.Fatalf("empty sketch p50 = %v, want 0", q)
	}
	for _, v := range []float64{0, -3, math.NaN(), 1e-9} {
		s.Observe(v)
	}
	if got := quantile(s.Snapshot(), 0.5); got != sketchMin {
		t.Fatalf("underflow p50 = %v, want %v", got, sketchMin)
	}
	o := NewSketch()
	o.Observe(1e6)
	o.Observe(math.Inf(1))
	if got := quantile(o.Snapshot(), 0.5); got != sketchMax {
		t.Fatalf("overflow p50 = %v, want %v", got, sketchMax)
	}
}

// TestSketchBinBoundaries checks that bin assignment round-trips with the
// bin bounds: a value inside bin i must yield a quantile inside that
// bin's range when it is the only observation.
func TestSketchBinBoundaries(t *testing.T) {
	for _, v := range []float64{sketchMin, 1e-3, 0.05, 0.5, 1, 10, sketchMax * 0.999} {
		s := NewSketch()
		s.Observe(v)
		got := quantile(s.Snapshot(), 0.5)
		// One observation: the estimate must be within one bin ratio of v.
		ratio := math.Exp(sketchLogRatio)
		if got < v/ratio*0.999 || got > v*ratio*1.001 {
			t.Errorf("single obs %v: quantile %v outside bin ratio %v", v, got, ratio)
		}
	}
}

// TestSketchConcurrent hammers Observe from many goroutines (the scoring
// fan-out shape); under -race this is the data-race regression, and the
// final count proves no observation is lost.
func TestSketchConcurrent(t *testing.T) {
	s := NewSketch()
	const workers, per = 16, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				s.Observe(float64(i%100)*0.01 + 0.001)
			}
		}(w)
	}
	wg.Wait()
	snap := s.Snapshot()
	if snap.Total != workers*per {
		t.Fatalf("snapshot total = %d, want %d", snap.Total, workers*per)
	}
}

// TestSketchObserveZeroAlloc pins the hot-path contract: Observe must not
// allocate (it sits inside per-row scoring).
func TestSketchObserveZeroAlloc(t *testing.T) {
	s := NewSketch()
	if n := testing.AllocsPerRun(1000, func() { s.Observe(0.17) }); n != 0 {
		t.Fatalf("Sketch.Observe allocates %v/op, want 0", n)
	}
}

// TestCostLedger exercises resolve-once Record and the snapshot payload.
// The ledger is process-global, so the test asserts deltas against a
// snapshot taken before it records: a second run (-count=2, -cpu 1,4)
// sees the same 100 rows at 20µs each.
func TestCostLedger(t *testing.T) {
	before := ledgerRow("ledgertest")
	e := CostFor("ledgertest")
	e.Record(100, 2e6) // 100 rows, 2ms → 20µs/row
	e.Record(0, 1e9)   // no rows: ignored
	var nilEntry *CostEntry
	nilEntry.Record(5, 1e6) // nil-safe no-op

	after := ledgerRow("ledgertest")
	if after.Model == "" {
		t.Fatal("ledgertest missing from LedgerSnapshot")
	}
	rows := after.Rows - before.Rows
	if rows != 100 {
		t.Fatalf("rows = %v, want 100", rows)
	}
	if nsPerRow := (after.Seconds - before.Seconds) * 1e9 / rows; math.Abs(nsPerRow-20000) > 1 {
		t.Fatalf("ns/row delta = %v, want 20000", nsPerRow)
	}
	// Every run records at the same 20µs/row, so the cumulative NsPerRow
	// that LedgerSnapshot computes stays exact across re-runs.
	if math.Abs(after.NsPerRow-20000) > 1 {
		t.Fatalf("NsPerRow = %v, want 20000", after.NsPerRow)
	}
}

// ledgerRow returns model's LedgerSnapshot row, or the zero row when the
// model has not been charged yet.
func ledgerRow(model string) CostRow {
	for _, r := range LedgerSnapshot() {
		if r.Model == model {
			return r
		}
	}
	return CostRow{}
}

// TestCostRecordZeroAlloc pins the per-batch cost of ledger recording.
func TestCostRecordZeroAlloc(t *testing.T) {
	e := CostFor("ledgeralloc")
	if n := testing.AllocsPerRun(1000, func() { e.Record(64, 1e5) }); n != 0 {
		t.Fatalf("CostEntry.Record allocates %v/op, want 0", n)
	}
}

package features

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"prodigy/internal/timeseries"
)

// Regression: SeriesFeatureNames used to build its name table lazily on
// first call, racing when a shared catalog was queried from multiple
// goroutines (the dataset builder and the online scorer both do). The table
// is now precomputed by New; this test fails under -race on the old code.
func TestSeriesFeatureNamesConcurrent(t *testing.T) {
	c := Default()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if len(c.SeriesFeatureNames()) != c.NumFeaturesPerSeries() {
					t.Error("name table length mismatch")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// Regression: periodogram used to clamp its bin count to the series length,
// so spectral extractors emitted fewer values for series shorter than 16
// samples and the per-series feature vector width depended on the input.
// Bins at or beyond the series length must exist and hold zero power.
func TestPeriodogramFixedBins(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 5, 15, 16, 100} {
		x := make([]float64, n)
		for i := range x {
			x[i] = float64(i % 4)
		}
		p := periodogram(x, specBins)
		if len(p) != specBins {
			t.Fatalf("len(periodogram) = %d for n=%d, want %d", len(p), n, specBins)
		}
		for k := len(x); k < specBins; k++ {
			if p[k] != 0 {
				t.Fatalf("n=%d: bin %d beyond series length has power %v, want 0", n, k, p[k])
			}
		}
	}
}

// Every extractor must emit exactly its declared number of values — finite
// ones — for any input length, including empty, singleton and constant
// series. The vector width must never depend on the data.
func TestContractSweep(t *testing.T) {
	c := Full()
	per := c.NumFeaturesPerSeries()
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{0, 1, 2, 3, 12, 1000} {
		inputs := map[string][]float64{
			"random":   make([]float64, n),
			"constant": make([]float64, n),
		}
		for i := range inputs["random"] {
			inputs["random"][i] = rng.NormFloat64()
			inputs["constant"][i] = 7.5
		}
		for kind, x := range inputs {
			feats := extract(c, x)
			if len(feats) != per {
				t.Fatalf("n=%d %s: got %d features, want %d", n, kind, len(feats), per)
			}
			for _, f := range feats {
				if math.IsNaN(f.Value) || math.IsInf(f.Value, 0) {
					t.Fatalf("n=%d %s: feature %q is non-finite: %v", n, kind, f.Name, f.Value)
				}
			}
		}
	}
}

// ExtractTableInto range-partitions metrics across workers into disjoint
// regions of dst, so the output must be bit-identical for any worker count.
func TestExtractTableWorkerCountDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ts := make([]int64, 48)
	for i := range ts {
		ts[i] = int64(i)
	}
	tb := timeseries.NewTable(ts)
	for m := 0; m < 11; m++ {
		col := make([]float64, len(ts))
		for i := range col {
			col[i] = rng.NormFloat64()
		}
		tb.AddColumn(string(rune('a'+m)), col)
	}
	c := Default()
	want := make([]float64, tb.NumMetrics()*c.NumFeaturesPerSeries())
	prev := runtime.GOMAXPROCS(1)
	c.ExtractTableInto(want, tb)
	for _, procs := range []int{2, 3, 7, prev} {
		runtime.GOMAXPROCS(procs)
		got := make([]float64, len(want))
		c.ExtractTableInto(got, tb)
		for i := range got {
			if got[i] != want[i] {
				runtime.GOMAXPROCS(prev)
				t.Fatalf("GOMAXPROCS=%d: value %d = %v, serial = %v", procs, i, got[i], want[i])
			}
		}
	}
	runtime.GOMAXPROCS(prev)
}

// Steady-state extraction must not allocate: all scratch comes from the
// workspace and all output goes to the caller's destination slice.
func TestExtractSeriesIntoZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	rng := rand.New(rand.NewSource(3))
	x := make([]float64, 60)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	c := Default()
	ws := NewWorkspace()
	dst := make([]float64, c.NumFeaturesPerSeries())
	c.ExtractSeriesInto(dst, x, ws) // warm the workspace buffers
	if n := testing.AllocsPerRun(20, func() {
		c.ExtractSeriesInto(dst, x, ws)
	}); n != 0 {
		t.Fatalf("ExtractSeriesInto allocates %v/op after warmup, want 0", n)
	}
}

// The serial path of ExtractTableInto (GOMAXPROCS=1) must also be
// allocation-free after the pooled workspace is warm.
func TestExtractTableIntoSerialZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	rng := rand.New(rand.NewSource(4))
	ts := make([]int64, 60)
	for i := range ts {
		ts[i] = int64(i)
	}
	tb := timeseries.NewTable(ts)
	for m := 0; m < 4; m++ {
		col := make([]float64, len(ts))
		for i := range col {
			col[i] = rng.NormFloat64()
		}
		tb.AddColumn(string(rune('a'+m)), col)
	}
	c := Default()
	dst := make([]float64, tb.NumMetrics()*c.NumFeaturesPerSeries())
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	c.ExtractTableInto(dst, tb) // warm the pool
	if n := testing.AllocsPerRun(20, func() {
		c.ExtractTableInto(dst, tb)
	}); n != 0 {
		t.Fatalf("serial ExtractTableInto allocates %v/op after warmup, want 0", n)
	}
}

// The in-place Haar cascades must agree with the allocating reference
// implementations for every length, including odd and short series.
func TestHaarInPlaceMatchesReference(t *testing.T) {
	c := Default()
	var energyOff, stdOff = -1, -1
	for i, e := range c.Extractors {
		switch e.Name {
		case "haar_energy":
			energyOff = c.offsets[i]
		case "haar_detail_std":
			stdOff = c.offsets[i]
		}
	}
	if energyOff < 0 || stdOff < 0 {
		t.Fatal("haar extractors not registered")
	}
	rng := rand.New(rand.NewSource(11))
	ws := NewWorkspace()
	dst := make([]float64, c.NumFeaturesPerSeries())
	for _, n := range []int{2, 3, 7, 16, 33, 128} {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		c.ExtractSeriesInto(dst, x, ws)

		details, approx := haarEnergies(x, waveletLevels)
		total := approx
		for _, e := range details {
			total += e
		}
		for lvl, e := range details {
			if want := e / total; math.Abs(dst[energyOff+lvl]-want) > 1e-12 {
				t.Fatalf("n=%d haar_energy level %d = %v, reference %v", n, lvl, dst[energyOff+lvl], want)
			}
		}
		if want := approx / total; math.Abs(dst[energyOff+waveletLevels]-want) > 1e-12 {
			t.Fatalf("n=%d haar_energy approx = %v, reference %v", n, dst[energyOff+waveletLevels], want)
		}
		for lvl, want := range haarDetailStds(x, waveletLevels) {
			if math.Abs(dst[stdOff+lvl]-want) > 1e-12 {
				t.Fatalf("n=%d haar_detail_std level %d = %v, reference %v", n, lvl, dst[stdOff+lvl], want)
			}
		}
	}
}

// The allocating references below are what the contract tests compare the
// production workspace extractors against: plain per-call slices, no
// scratch reuse.

// periodogram returns the bins-length periodogram of x. The result always
// has exactly bins entries, padding with zero power for short series.
func periodogram(x []float64, bins int) []float64 {
	p := make([]float64, bins)
	periodogramInto(p, x)
	return p
}

// haarStep performs one Haar DWT level: approximation (pairwise averages ×
// √2) and detail (pairwise differences × 1/√2 scaling convention chosen so
// energy is preserved).
func haarStep(x []float64) (approx, detail []float64) {
	n := len(x) / 2
	approx = make([]float64, n)
	detail = make([]float64, n)
	for i := 0; i < n; i++ {
		approx[i] = (x[2*i] + x[2*i+1]) * invSqrt2
		detail[i] = (x[2*i] - x[2*i+1]) * invSqrt2
	}
	return approx, detail
}

// haarEnergies returns the detail energy per level (0 = finest) plus the
// remaining approximation energy. The mean is removed first so the DC
// offset does not drown the decomposition. Levels beyond what the series
// length supports are simply absent.
func haarEnergies(x []float64, levels int) (details []float64, approxEnergy float64) {
	if len(x) < 2 {
		return nil, 0
	}
	work := make([]float64, len(x))
	m := 0.0
	for _, v := range x {
		m += v
	}
	m /= float64(len(x))
	for i, v := range x {
		work[i] = v - m
	}
	for lvl := 0; lvl < levels && len(work) >= 2; lvl++ {
		approx, detail := haarStep(work)
		e := 0.0
		for _, d := range detail {
			e += d * d
		}
		details = append(details, e)
		work = approx
	}
	for _, a := range work {
		approxEnergy += a * a
	}
	return details, approxEnergy
}

// haarDetailStds returns the standard deviation of each detail level.
func haarDetailStds(x []float64, levels int) []float64 {
	if len(x) < 2 {
		return nil
	}
	work := make([]float64, len(x))
	copy(work, x)
	var out []float64
	for lvl := 0; lvl < levels && len(work) >= 2; lvl++ {
		approx, detail := haarStep(work)
		mean := 0.0
		for _, d := range detail {
			mean += d
		}
		mean /= float64(len(detail))
		varSum := 0.0
		for _, d := range detail {
			varSum += (d - mean) * (d - mean)
		}
		out = append(out, math.Sqrt(varSum/float64(len(detail))))
		work = approx
	}
	return out
}

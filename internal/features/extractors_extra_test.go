package features

import (
	"math"
	"math/rand"
	"testing"
)

// pacfOf runs the registered partial_autocorrelation extractor on x.
func pacfOf(x []float64) []float64 {
	out := make([]float64, pacfMaxLag)
	exPartialAutocorrelation(x, out, NewWorkspace())
	return out
}

func TestPartialAutocorrelationAR1(t *testing.T) {
	// AR(1) with φ=0.6: PACF(1)≈0.6, PACF(k>1)≈0.
	rng := rand.New(rand.NewSource(1))
	n := 5000
	x := make([]float64, n)
	for i := 1; i < n; i++ {
		x[i] = 0.6*x[i-1] + rng.NormFloat64()
	}
	pacf := pacfOf(x)
	if math.Abs(pacf[0]-0.6) > 0.05 {
		t.Fatalf("PACF(1) = %v, want ~0.6", pacf[0])
	}
	for lag := 2; lag <= pacfMaxLag; lag++ {
		if math.Abs(pacf[lag-1]) > 0.08 {
			t.Fatalf("PACF(%d) = %v, want ~0", lag, pacf[lag-1])
		}
	}
	// Degenerate inputs give zeros.
	if v := pacfOf([]float64{1, 2}); v[0] != 0 {
		t.Fatal("short series PACF should be zero")
	}
	if v := pacfOf([]float64{3, 3, 3, 3, 3, 3, 3, 3}); v[0] != 0 {
		t.Fatal("constant series PACF should be zero")
	}
}

// changeQuantilesOf runs the registered change_quantiles extractor on x:
// a (mean, std) pair of |diff(x)| per corridor of cqCorridors.
func changeQuantilesOf(x []float64) []float64 {
	out := make([]float64, 2*len(cqCorridors))
	exChangeQuantiles(x, out, NewWorkspace())
	return out
}

func TestChangeQuantiles(t *testing.T) {
	// Constant series: no changes anywhere.
	for i, v := range changeQuantilesOf([]float64{5, 5, 5, 5}) {
		if v != 0 {
			t.Fatalf("constant change quantiles[%d] = %v", i, v)
		}
	}
	// A series with small changes inside the [0.2, 0.8] corridor (values 1
	// and 2) and a big jump at the top: the corridor excludes the jump.
	x := []float64{1, 2, 1, 2, 1, 100}
	const i = 2
	if cqCorridors[i] != [2]float64{0.2, 0.8} {
		t.Fatalf("corridor %d is %v, want [0.2 0.8]", i, cqCorridors[i])
	}
	got := changeQuantilesOf(x)
	if m, s := got[2*i], got[2*i+1]; math.Abs(m-1) > 1e-9 || s != 0 {
		t.Fatalf("[0.2, 0.8] corridor mean/std change = %v/%v, want 1/0", m, s)
	}
	for i, v := range changeQuantilesOf([]float64{1}) {
		if v != 0 {
			t.Fatalf("single point change quantiles[%d] = %v, want 0", i, v)
		}
	}
}

func TestRobustDeviations(t *testing.T) {
	fs := extract(Minimal(), []float64{1, 1, 1, 1, 101})
	mad, ok := findFeature(fs, "median_absolute_deviation")
	if !ok {
		t.Fatal("median_absolute_deviation missing")
	}
	// Median 1; deviations {0,0,0,0,100}; median deviation 0 — robust to
	// the outlier.
	if mad != 0 {
		t.Fatalf("MAD = %v", mad)
	}
	meanAD, _ := findFeature(fs, "mean_absolute_deviation")
	if meanAD <= 0 {
		t.Fatalf("mean abs deviation = %v", meanAD)
	}
}

func TestRecurrenceFeatures(t *testing.T) {
	x := []float64{1, 2, 2, 3, 3, 3}
	fs := extract(Minimal(), x)
	if v, _ := findFeature(fs, "ratio_value_number_to_length"); math.Abs(v-0.5) > 1e-12 {
		t.Fatalf("unique ratio = %v, want 0.5", v)
	}
	// Reoccurring values: 2 and 3 → sum 5.
	if v, _ := findFeature(fs, "sum_of_reoccurring_values"); v != 5 {
		t.Fatalf("sum_of_reoccurring_values = %v", v)
	}
	// Reoccurring data points: 2×2 + 3×3 = 13.
	if v, _ := findFeature(fs, "sum_of_reoccurring_data_points"); v != 13 {
		t.Fatalf("sum_of_reoccurring_data_points = %v", v)
	}
}

func TestMonotoneRuns(t *testing.T) {
	up, down := longestMonotoneRuns([]float64{1, 2, 3, 4, 2, 1, 1, 5})
	if up != 3 {
		t.Fatalf("up = %d, want 3 (1→2→3→4)", up)
	}
	if down != 2 {
		t.Fatalf("down = %d, want 2 (4→2→1)", down)
	}
	if u, d := longestMonotoneRuns(nil); u != 0 || d != 0 {
		t.Fatal("empty runs should be 0")
	}
}

func TestEnergyRatioHalvesDetectsDrift(t *testing.T) {
	// A ramp concentrates energy in the second half.
	ramp := make([]float64, 100)
	for i := range ramp {
		ramp[i] = float64(i)
	}
	fs := extract(Minimal(), ramp)
	v, ok := findFeature(fs, "energy_ratio_halves")
	if !ok {
		t.Fatal("energy_ratio_halves missing")
	}
	if v < 0.8 {
		t.Fatalf("ramp second-half energy ratio = %v", v)
	}
	// A stationary series splits energy evenly.
	flat := make([]float64, 100)
	for i := range flat {
		flat[i] = 5 + math.Sin(float64(i))
	}
	fs = extract(Minimal(), flat)
	v, _ = findFeature(fs, "energy_ratio_halves")
	if math.Abs(v-0.5) > 0.05 {
		t.Fatalf("stationary ratio = %v, want ~0.5", v)
	}
}

func TestNumberCrossingMedian(t *testing.T) {
	fs := extract(Minimal(), []float64{0, 10, 0, 10, 0})
	v, _ := findFeature(fs, "number_crossing_median")
	if v != 4 {
		t.Fatalf("median crossings = %v", v)
	}
}

func TestRangeCountMid(t *testing.T) {
	// Normal data: ~68% within one standard deviation.
	rng := rand.New(rand.NewSource(2))
	x := make([]float64, 5000)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	fs := extract(Minimal(), x)
	v, _ := findFeature(fs, "range_count_mid")
	if math.Abs(v-0.68) > 0.03 {
		t.Fatalf("within-1σ fraction = %v, want ~0.68", v)
	}
}

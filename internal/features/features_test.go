package features

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"prodigy/internal/timeseries"
)

// feature pairs a per-series feature name with its value.
type feature struct {
	Name  string
	Value float64
}

// extract runs c over one series through ExtractSeriesInto on a workspace
// it owns, returning the named values in catalog order.
func extract(c *Catalog, x []float64) []feature {
	vals := make([]float64, c.NumFeaturesPerSeries())
	c.ExtractSeriesInto(vals, x, NewWorkspace())
	out := make([]feature, len(vals))
	for i, v := range vals {
		out[i] = feature{Name: c.SeriesFeatureNames()[i], Value: v}
	}
	return out
}

func findFeature(fs []feature, name string) (float64, bool) {
	for _, f := range fs {
		if f.Name == name {
			return f.Value, true
		}
	}
	return 0, false
}

func TestCatalogTiers(t *testing.T) {
	min, def, full := Minimal(), Default(), Full()
	if len(min.Extractors) == 0 {
		t.Fatal("minimal catalog empty")
	}
	if len(def.Extractors) <= len(min.Extractors) {
		t.Fatal("default catalog should extend minimal")
	}
	if len(full.Extractors) <= len(def.Extractors) {
		t.Fatal("full catalog should extend default")
	}
}

func TestFeatureCountIsSubstantial(t *testing.T) {
	// The paper's TSFRESH computes hundreds of features per metric; our
	// catalog should emit a healthy fraction of that.
	n := Full().NumFeaturesPerSeries()
	if n < 90 {
		t.Fatalf("full catalog emits only %d features per series", n)
	}
}

func TestDescriptiveValues(t *testing.T) {
	x := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	fs := extract(Minimal(), x)
	cases := map[string]float64{
		"mean":               5,
		"standard_deviation": 2,
		"variance":           4,
		"minimum":            2,
		"maximum":            9,
		"sum_values":         40,
		"range":              7,
		"abs_energy":         4 + 16 + 16 + 16 + 25 + 25 + 49 + 81,
		"first_value":        2,
		"last_value":         9,
	}
	for name, want := range cases {
		got, ok := findFeature(fs, name)
		if !ok {
			t.Fatalf("feature %q missing", name)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

func TestMeanChangeTelescopes(t *testing.T) {
	fs := extract(Minimal(), []float64{1, 5, 2, 9})
	got, _ := findFeature(fs, "mean_change")
	if math.Abs(got-(9.0-1.0)/3.0) > 1e-12 {
		t.Fatalf("mean_change = %v", got)
	}
}

func TestSkewnessKurtosisSymmetry(t *testing.T) {
	// A symmetric series has ~0 skewness.
	sym := []float64{-2, -1, 0, 1, 2}
	if s := skewness(sym); math.Abs(s) > 1e-12 {
		t.Fatalf("skewness of symmetric = %v", s)
	}
	// A right-tailed series has positive skewness.
	if s := skewness([]float64{1, 1, 1, 1, 10}); s <= 0 {
		t.Fatalf("skewness of right tail = %v", s)
	}
	// Constant series: zero, not NaN.
	if skewness([]float64{3, 3, 3, 3}) != 0 || kurtosis([]float64{3, 3, 3, 3, 3}) != 0 {
		t.Fatal("constant series should give 0 moments")
	}
}

func TestLongestStrike(t *testing.T) {
	// mean = 2: values above mean are {5, 5, 5} consecutive.
	x := []float64{0, 5, 5, 5, 0, 3, 0, 0, 0, 2}
	if got := longestStrike(x, true); got != 3 {
		t.Fatalf("longest above = %v", got)
	}
	if got := longestStrike(x, false); got != 3 {
		t.Fatalf("longest below = %v", got)
	}
}

func TestAutocorrelation(t *testing.T) {
	// A constant-increment series has lag-1 autocorrelation near 1.
	x := make([]float64, 50)
	for i := range x {
		x[i] = float64(i)
	}
	if ac := autocorrelation(x, 1); ac < 0.9 {
		t.Fatalf("ramp lag-1 autocorr = %v", ac)
	}
	// An alternating series has strongly negative lag-1 autocorrelation.
	alt := make([]float64, 50)
	for i := range alt {
		alt[i] = float64(i%2*2 - 1)
	}
	if ac := autocorrelation(alt, 1); ac > -0.9 {
		t.Fatalf("alternating lag-1 autocorr = %v", ac)
	}
	if autocorrelation([]float64{1, 2}, 5) != 0 {
		t.Fatal("lag beyond length should be 0")
	}
	if autocorrelation([]float64{2, 2, 2}, 1) != 0 {
		t.Fatal("zero-variance autocorr should be 0")
	}
}

func TestC3AndTimeReversal(t *testing.T) {
	if c3([]float64{1, 1}, 1) != 0 {
		t.Fatal("short series c3 should be 0")
	}
	// c3 of all-ones is 1.
	ones := []float64{1, 1, 1, 1, 1, 1}
	if v := c3(ones, 1); math.Abs(v-1) > 1e-12 {
		t.Fatalf("c3(ones) = %v", v)
	}
	// Time reversal asymmetry of a symmetric (reversible) series ~ 0.
	sym := []float64{0, 1, 0, -1, 0, 1, 0, -1, 0, 1, 0, -1}
	if v := timeReversalAsymmetry(sym, 1); math.Abs(v) > 0.2 {
		t.Fatalf("TRA of reversible series = %v", v)
	}
}

func TestBinnedEntropy(t *testing.T) {
	if binnedEntropy([]float64{5, 5, 5}, 10, NewWorkspace()) != 0 {
		t.Fatal("constant series entropy should be 0")
	}
	// Uniform spread across bins approaches log(10).
	x := make([]float64, 1000)
	for i := range x {
		x[i] = float64(i)
	}
	h := binnedEntropy(x, 10, NewWorkspace())
	if math.Abs(h-math.Log(10)) > 0.01 {
		t.Fatalf("uniform entropy = %v, want ~%v", h, math.Log(10))
	}
}

func TestPermutationEntropy(t *testing.T) {
	// Monotone series: single ordinal pattern, entropy 0.
	x := []float64{1, 2, 3, 4, 5, 6, 7}
	if h := permutationEntropy(x, 3, NewWorkspace()); h != 0 {
		t.Fatalf("monotone permutation entropy = %v", h)
	}
	// Random series: entropy close to 1 (normalized).
	rng := rand.New(rand.NewSource(7))
	r := make([]float64, 500)
	for i := range r {
		r[i] = rng.Float64()
	}
	if h := permutationEntropy(r, 3, NewWorkspace()); h < 0.9 {
		t.Fatalf("random permutation entropy = %v", h)
	}
}

func TestBenfordCorrelation(t *testing.T) {
	// Data generated from a log-uniform distribution follows Benford's law.
	rng := rand.New(rand.NewSource(11))
	x := make([]float64, 5000)
	for i := range x {
		x[i] = math.Pow(10, rng.Float64()*6)
	}
	if c := benfordCorrelation(x); c < 0.95 {
		t.Fatalf("log-uniform benford correlation = %v", c)
	}
	// All values share the same first digit: correlation far from 1.
	same := []float64{9.1, 9.5, 92, 950, 9999}
	if c := benfordCorrelation(same); c > 0.5 {
		t.Fatalf("same-digit benford correlation = %v", c)
	}
	if benfordCorrelation([]float64{0, 0}) != 0 {
		t.Fatal("all-zero series should give 0")
	}
}

func TestFirstDigit(t *testing.T) {
	cases := map[float64]int{123: 1, 9: 9, 0.034: 3, 1e9: 1, 7.7: 7, 0: 0, -1: 0}
	for in, want := range cases {
		if got := firstDigit(in); got != want {
			t.Errorf("firstDigit(%v) = %d, want %d", in, got, want)
		}
	}
}

func TestNumberPeaks(t *testing.T) {
	x := []float64{0, 5, 0, 0, 7, 0, 1}
	if n := numberPeaks(x, 1); n != 2 {
		t.Fatalf("numberPeaks = %v", n)
	}
	if n := numberPeaks(x, 3); n != 0 {
		t.Fatalf("wide support peaks = %v", n)
	}
}

func TestApproximateAndSampleEntropy(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	random := make([]float64, 120)
	regular := make([]float64, 120)
	for i := range random {
		random[i] = rng.NormFloat64()
		regular[i] = math.Sin(float64(i) / 3)
	}
	ra := approximateEntropy(random, 2, 0.2)
	ga := approximateEntropy(regular, 2, 0.2)
	if ra <= ga {
		t.Fatalf("ApEn(random)=%v should exceed ApEn(regular)=%v", ra, ga)
	}
	rs := sampleEntropy(random, 2, 0.2)
	gs := sampleEntropy(regular, 2, 0.2)
	if rs <= gs {
		t.Fatalf("SampEn(random)=%v should exceed SampEn(regular)=%v", rs, gs)
	}
	if approximateEntropy([]float64{1, 2}, 2, 0.2) != 0 {
		t.Fatal("short series ApEn should be 0")
	}
}

func TestLinearTrend(t *testing.T) {
	x := []float64{1, 3, 5, 7, 9} // slope 2, intercept 1, perfect fit
	slope, intercept, r := linearTrend(x)
	if math.Abs(slope-2) > 1e-12 || math.Abs(intercept-1) > 1e-12 || math.Abs(r-1) > 1e-12 {
		t.Fatalf("linearTrend = %v %v %v", slope, intercept, r)
	}
	s, i, r2 := linearTrend([]float64{4})
	if s != 0 || i != 4 || r2 != 0 {
		t.Fatal("single-point trend")
	}
}

func TestYuleWalkerRecoversAR1(t *testing.T) {
	// Simulate AR(1): x[t] = 0.7 x[t-1] + noise.
	rng := rand.New(rand.NewSource(3))
	n := 5000
	x := make([]float64, n)
	for i := 1; i < n; i++ {
		x[i] = 0.7*x[i-1] + rng.NormFloat64()
	}
	coefs := yuleWalker(x, 4)
	if math.Abs(coefs[0]-0.7) > 0.05 {
		t.Fatalf("AR(1) coefficient = %v, want ~0.7", coefs[0])
	}
	for _, c := range coefs[1:] {
		if math.Abs(c) > 0.1 {
			t.Fatalf("higher-order coefficients should be ~0: %v", coefs)
		}
	}
}

func TestIndexMassQuantile(t *testing.T) {
	// All mass at the first element.
	if v := indexMassQuantile([]float64{10, 0, 0, 0}, 0.5); v != 0.25 {
		t.Fatalf("index mass = %v", v)
	}
	if indexMassQuantile(nil, 0.5) != 0 {
		t.Fatal("empty should be 0")
	}
}

func TestSpectralPeak(t *testing.T) {
	// A pure sinusoid at DFT bin 4 of a 64-sample window.
	n := 64
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * 4 * float64(i) / float64(n))
	}
	fs := extract(Default(), x)
	peak, ok := findFeature(fs, "spectral_peak_frequency")
	if !ok {
		t.Fatal("spectral_peak_frequency missing")
	}
	if peak != 4 {
		t.Fatalf("spectral peak = %v, want 4", peak)
	}
}

func TestExtractTableNamesAndShape(t *testing.T) {
	tb := timeseries.NewTable([]int64{0, 1, 2, 3, 4})
	tb.AddColumn("MemFree::meminfo", []float64{5, 4, 3, 2, 1})
	tb.AddColumn("pgrotated::vmstat", []float64{0, 0, 1, 0, 0})
	cat := Minimal()
	names, vals := cat.ExtractTable(tb)
	if len(names) != len(vals) {
		t.Fatal("names/values length mismatch")
	}
	want := 2 * cat.NumFeaturesPerSeries()
	if len(names) != want {
		t.Fatalf("got %d features, want %d", len(names), want)
	}
	if !strings.HasPrefix(names[0], "MemFree::meminfo__") {
		t.Fatalf("first name = %q", names[0])
	}
	// Mean of the first metric should be present and correct.
	for i, n := range names {
		if n == "MemFree::meminfo__mean" {
			if vals[i] != 3 {
				t.Fatalf("MemFree mean = %v", vals[i])
			}
			return
		}
	}
	t.Fatal("MemFree::meminfo__mean not found")
}

func TestTableFeatureNamesMatchesExtract(t *testing.T) {
	tb := timeseries.NewTable([]int64{0, 1, 2})
	tb.AddColumn("a", []float64{1, 2, 3})
	tb.AddColumn("b", []float64{3, 2, 1})
	cat := Minimal()
	extracted, _ := cat.ExtractTable(tb)
	precomputed := cat.TableFeatureNames(tb.Order)
	if len(extracted) != len(precomputed) {
		t.Fatal("length mismatch")
	}
	for i := range extracted {
		if extracted[i] != precomputed[i] {
			t.Fatalf("name %d: %q vs %q", i, extracted[i], precomputed[i])
		}
	}
}

// Property: every extractor returns the same number of features with the
// same names regardless of input, including degenerate series; and all
// values emitted by the catalog are finite.
func TestQuickFixedShapeAndFinite(t *testing.T) {
	cat := Full()
	ref := cat.SeriesFeatureNames()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var x []float64
		switch rng.Intn(5) {
		case 0: // empty
		case 1: // single value
			x = []float64{rng.NormFloat64()}
		case 2: // constant
			x = make([]float64, 2+rng.Intn(30))
			c := rng.NormFloat64()
			for i := range x {
				x[i] = c
			}
		case 3: // includes extreme values
			x = make([]float64, 5+rng.Intn(20))
			for i := range x {
				x[i] = rng.NormFloat64() * 1e12
			}
		default: // normal random
			x = make([]float64, 2+rng.Intn(60))
			for i := range x {
				x[i] = rng.NormFloat64()
			}
		}
		fs := extract(cat, x)
		if len(fs) != len(ref) {
			return false
		}
		for i, f := range fs {
			if f.Name != ref[i] {
				return false
			}
			if math.IsNaN(f.Value) || math.IsInf(f.Value, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: feature extraction is deterministic.
func TestQuickDeterministic(t *testing.T) {
	cat := Default()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := make([]float64, 10+rng.Intn(40))
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		a := extract(cat, x)
		b := extract(cat, x)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

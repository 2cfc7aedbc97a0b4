package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDot(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Fatal("Dot wrong")
	}
	if Dot(nil, nil) != 0 {
		t.Fatal("empty Dot should be 0")
	}
}

func TestDotLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestAxpy(t *testing.T) {
	y := []float64{1, 1}
	Axpy(2, []float64{3, 4}, y)
	if y[0] != 7 || y[1] != 9 {
		t.Fatalf("Axpy = %v", y)
	}
}

func TestNormsAndDistance(t *testing.T) {
	if !almostEq(EuclideanDistance([]float64{0, 0}, []float64{3, 4}), 5, 1e-12) {
		t.Fatal("EuclideanDistance wrong")
	}
}

func TestMeanVarianceStd(t *testing.T) {
	v := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if !almostEq(Mean(v), 5, 1e-12) {
		t.Fatalf("Mean = %v", Mean(v))
	}
	if !almostEq(Variance(v), 4, 1e-12) {
		t.Fatalf("Variance = %v", Variance(v))
	}
	if !almostEq(Std(v), 2, 1e-12) {
		t.Fatalf("Std = %v", Std(v))
	}
	if Mean(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Fatal("degenerate cases must be 0")
	}
}

func TestMinMaxArg(t *testing.T) {
	v := []float64{3, -1, 7, 7, 2}
	if Min(v) != -1 || Max(v) != 7 {
		t.Fatal("Min/Max wrong")
	}
	if ArgMax(v) != 2 {
		t.Fatalf("ArgMax = %d", ArgMax(v))
	}
	if ArgMin(v) != 1 {
		t.Fatalf("ArgMin = %d", ArgMin(v))
	}
	if ArgMax(nil) != -1 || ArgMin(nil) != -1 {
		t.Fatal("empty Arg* should be -1")
	}
}

func TestPercentile(t *testing.T) {
	v := []float64{1, 2, 3, 4}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 4}, {50, 2.5}, {25, 1.75}, {75, 3.25},
	}
	for _, c := range cases {
		if got := Percentile(v, c.p); !almostEq(got, c.want, 1e-12) {
			t.Fatalf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile([]float64{42}, 99) != 42 {
		t.Fatal("single-element percentile")
	}
	// Out-of-range p is clamped.
	if Percentile(v, -5) != 1 || Percentile(v, 200) != 4 {
		t.Fatal("clamping failed")
	}
	if Percentile([]float64{1, 3, 2}, 50) != 2 {
		t.Fatal("odd-length median wrong")
	}
	// Input must not be mutated (Percentile sorts a copy).
	in := []float64{3, 1, 2}
	Percentile(in, 50)
	if in[0] != 3 {
		t.Fatal("Percentile mutated its input")
	}
}

func TestMAEAndMSE(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{2, 2, 1}
	if !almostEq(MAE(a, b), 1, 1e-12) {
		t.Fatalf("MAE = %v", MAE(a, b))
	}
	if !almostEq(MSE(a, b), 5.0/3.0, 1e-12) {
		t.Fatalf("MSE = %v", MSE(a, b))
	}
	if MAE(nil, nil) != 0 || MSE(nil, nil) != 0 {
		t.Fatal("empty error metrics should be 0")
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Fatal("Clamp wrong")
	}
}

// Property: percentile is monotone in p.
func TestQuickPercentileMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64() * 100
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 7 {
			q := Percentile(v, p)
			if q < prev-1e-9 {
				return false
			}
			prev = q
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Std >= 0 and MAE(a, a) == 0.
func TestQuickStatsInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return Std(v) >= 0 && MAE(v, v) == 0 && Min(v) <= Mean(v)+1e-9 && Mean(v) <= Max(v)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

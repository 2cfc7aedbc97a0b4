package featsel

import (
	"math/rand"
	"testing"
	"testing/quick"

	"prodigy/internal/mat"
)

// makeDataset builds a matrix where column 0 strongly separates the classes,
// column 1 is pure noise, and column 2 weakly separates.
func makeDataset(n int, rng *rand.Rand) (*mat.Matrix, []int) {
	x := mat.New(n, 3)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		y[i] = i % 2
		base := 0.0
		if y[i] == 1 {
			base = 10
		}
		x.Data[i*x.Cols] = base + rng.Float64()       // strong signal
		x.Data[i*x.Cols+1] = rng.Float64()            // noise
		x.Data[i*x.Cols+2] = base/5 + rng.Float64()*2 // weak signal
	}
	return x, y
}

func TestChiSquareRanksSignalAboveNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x, y := makeDataset(200, rng)
	scores, err := ChiSquare(x, y, []string{"strong", "noise", "weak"})
	if err != nil {
		t.Fatal(err)
	}
	if scores[0].Chi2 <= scores[1].Chi2 {
		t.Fatalf("strong=%v should beat noise=%v", scores[0].Chi2, scores[1].Chi2)
	}
	if scores[2].Chi2 <= scores[1].Chi2 {
		t.Fatalf("weak=%v should beat noise=%v", scores[2].Chi2, scores[1].Chi2)
	}
	if scores[0].Chi2 <= scores[2].Chi2 {
		t.Fatalf("strong=%v should beat weak=%v", scores[0].Chi2, scores[2].Chi2)
	}
	if scores[0].Name != "strong" {
		t.Fatalf("name = %q", scores[0].Name)
	}
}

func TestChiSquareHandlesNegativeValues(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := mat.New(100, 1)
	y := make([]int, 100)
	for i := 0; i < 100; i++ {
		y[i] = i % 2
		x.Data[i*x.Cols] = -50 + float64(y[i])*20 + rng.Float64()
	}
	scores, err := ChiSquare(x, y, nil)
	if err != nil {
		t.Fatal(err)
	}
	if scores[0].Chi2 <= 0 {
		t.Fatalf("negative-valued discriminative feature scored %v", scores[0].Chi2)
	}
}

func TestChiSquareErrors(t *testing.T) {
	x := mat.New(4, 2)
	if _, err := ChiSquare(x, []int{0, 1}, nil); err == nil {
		t.Fatal("expected label-count error")
	}
	if _, err := ChiSquare(x, []int{0, 0, 0, 0}, nil); err == nil {
		t.Fatal("expected single-class error")
	}
	if _, err := ChiSquare(x, []int{0, 1, 2, 0}, nil); err == nil {
		t.Fatal("expected non-binary label error")
	}
	if _, err := ChiSquare(x, []int{0, 1, 0, 1}, []string{"only-one"}); err == nil {
		t.Fatal("expected name-count error")
	}
}

func TestSelectTopK(t *testing.T) {
	scores := []Score{
		{Index: 0, Chi2: 1},
		{Index: 1, Chi2: 5},
		{Index: 2, Chi2: 3},
		{Index: 3, Chi2: 5},
	}
	got := SelectTopK(scores, 3)
	// Ties (1 and 3 at 5.0) break by index.
	want := []int{1, 3, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SelectTopK = %v", got)
		}
	}
	if len(SelectTopK(scores, 100)) != 4 {
		t.Fatal("k should clamp to feature count")
	}
	if len(SelectTopK(scores, -1)) != 0 {
		t.Fatal("negative k should clamp to 0")
	}
}

func TestSelectEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x, y := makeDataset(300, rng)
	sel, err := Select(x, y, []string{"strong", "noise", "weak"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Indices) != 2 || sel.Indices[0] != 0 {
		t.Fatalf("selected %v", sel.Indices)
	}
	if sel.Names[0] != "strong" {
		t.Fatalf("names = %v", sel.Names)
	}
	sub := sel.Apply(x)
	if sub.Cols != 2 || sub.Rows != 300 {
		t.Fatalf("applied shape %dx%d", sub.Rows, sub.Cols)
	}
	if sub.At(5, 0) != x.At(5, 0) {
		t.Fatal("Apply must select the right columns")
	}
}

func TestSelectTopKByVariance(t *testing.T) {
	x := mat.FromRows([][]float64{
		{0, 100, 1},
		{0, -100, 2},
		{0, 100, 1},
		{0, -100, 2},
	})
	got := SelectTopKByVariance(x, 2)
	if got[0] != 1 || got[1] != 2 {
		t.Fatalf("variance ranking = %v", got)
	}
}

// Property: chi-square scores are non-negative and invariant to feature
// scaling by a positive constant.
func TestQuickChi2Invariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(50)
		x := mat.New(n, 2)
		y := make([]int, n)
		for i := 0; i < n; i++ {
			y[i] = i % 2
			x.Data[i*x.Cols] = rng.Float64() * 10
			x.Data[i*x.Cols+1] = rng.Float64() * 10
		}
		s1, err := ChiSquare(x, y, nil)
		if err != nil {
			return false
		}
		for _, s := range s1 {
			if s.Chi2 < 0 {
				return false
			}
		}
		// Scale column 0 by 7: ranking against itself must be stable
		// (chi2 scales linearly with a positive multiplier, so the score
		// changes but stays non-negative and finite).
		scaled := x.Clone()
		for i := 0; i < n; i++ {
			scaled.Data[i*scaled.Cols] = scaled.At(i, 0) * 7
		}
		s2, err := ChiSquare(scaled, y, nil)
		if err != nil {
			return false
		}
		return s2[0].Chi2 >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: a constant feature always scores exactly 0.
func TestQuickConstantFeatureZero(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(40)
		x := mat.New(n, 1)
		c := rng.Float64() * 100
		y := make([]int, n)
		for i := 0; i < n; i++ {
			x.Data[i*x.Cols] = c
			y[i] = i % 2
		}
		s, err := ChiSquare(x, y, nil)
		if err != nil {
			return false
		}
		// With equal class counts a constant feature has obs == exp.
		return s[0].Chi2 < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSelectTopKByKurtosis(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	// Column 0: tail-heavy (5% of samples far out) — high kurtosis.
	// Column 1: uniform noise — negative excess kurtosis.
	// Column 2: constant — zero.
	x := mat.New(200, 3)
	for i := 0; i < 200; i++ {
		v := rng.NormFloat64()
		if i%20 == 0 {
			v += 30
		}
		x.Data[i*x.Cols] = v
		x.Data[i*x.Cols+1] = rng.Float64()
		x.Data[i*x.Cols+2] = 5
	}
	got := SelectTopKByKurtosis(x, 1)
	if got[0] != 0 {
		t.Fatalf("kurtosis ranking picked column %d, want 0", got[0])
	}
	// Scale invariance: multiplying a column by 1000 must not change the
	// ranking (unlike variance ranking).
	scaled := x.Clone()
	for i := 0; i < 200; i++ {
		scaled.Data[i*scaled.Cols+1] = scaled.At(i, 1) * 1e6
	}
	if SelectTopKByKurtosis(scaled, 1)[0] != 0 {
		t.Fatal("kurtosis ranking must be scale-invariant")
	}
	if SelectTopKByVariance(scaled, 1)[0] != 1 {
		t.Fatal("variance ranking should be scale-dominated (the contrast this test documents)")
	}
}

package kmeans

import (
	"math"
	"math/rand"
	"testing"

	"prodigy/internal/mat"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{K: 0, MaxIter: 1}); err == nil {
		t.Fatal("expected k error")
	}
	if _, err := New(Config{K: 1, MaxIter: 0}); err == nil {
		t.Fatal("expected iter error")
	}
}

func TestFitEmpty(t *testing.T) {
	km, _ := New(DefaultConfig())
	if err := km.Fit(mat.New(0, 2)); err == nil {
		t.Fatal("expected empty-set error")
	}
}

func TestRecoversTwoClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := mat.New(200, 2)
	for i := 0; i < 100; i++ {
		x.Data[i*x.Cols] = rng.NormFloat64() * 0.1
		x.Data[i*x.Cols+1] = rng.NormFloat64() * 0.1
	}
	for i := 100; i < 200; i++ {
		x.Data[i*x.Cols] = 5 + rng.NormFloat64()*0.1
		x.Data[i*x.Cols+1] = 5 + rng.NormFloat64()*0.1
	}
	km, _ := New(Config{K: 2, MaxIter: 50, Contamination: 0.1, Seed: 1})
	if err := km.Fit(x); err != nil {
		t.Fatal(err)
	}
	// One centroid near (0,0), the other near (5,5), in some order.
	c0 := km.Centroids.Row(0)
	c1 := km.Centroids.Row(1)
	near := func(c []float64, x, y float64) bool {
		return math.Hypot(c[0]-x, c[1]-y) < 0.5
	}
	if !(near(c0, 0, 0) && near(c1, 5, 5)) && !(near(c0, 5, 5) && near(c1, 0, 0)) {
		t.Fatalf("centroids = %v %v", c0, c1)
	}
}

func TestScoresDistanceSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := mat.Randn(50, 2, 0.3, rng)
	km, _ := New(Config{K: 3, MaxIter: 30, Contamination: 0.1, Seed: 2})
	if err := km.Fit(x); err != nil {
		t.Fatal(err)
	}
	far := mat.FromRows([][]float64{{100, 100}})
	nearby := mat.FromRows([][]float64{{0, 0}})
	if km.Scores(far)[0] <= km.Scores(nearby)[0] {
		t.Fatal("far point must score higher")
	}
	if km.Predict(far)[0] != 1 {
		t.Fatal("far point should be predicted anomalous")
	}
}

func TestKClampsToSampleCount(t *testing.T) {
	x := mat.FromRows([][]float64{{1, 1}, {2, 2}})
	km, _ := New(Config{K: 10, MaxIter: 5, Contamination: 0.1, Seed: 1})
	if err := km.Fit(x); err != nil {
		t.Fatal(err)
	}
	for _, s := range km.Scores(x) {
		if math.IsNaN(s) {
			t.Fatal("NaN score")
		}
	}
}

func TestScoresBeforeFitPanics(t *testing.T) {
	km, _ := New(DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	km.Scores(mat.New(1, 2))
}

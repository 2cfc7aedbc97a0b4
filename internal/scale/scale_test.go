package scale

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"prodigy/internal/mat"
)

func TestMinMaxBasic(t *testing.T) {
	x := mat.FromRows([][]float64{{0, 10}, {5, 20}, {10, 30}})
	s := NewMinMax()
	out := FitTransform(s, x)
	want := mat.FromRows([][]float64{{0, 0}, {0.5, 0.5}, {1, 1}})
	if !mat.Equal(out, want, 1e-12) {
		t.Fatalf("minmax = %v", out.Data)
	}
	// Original must be untouched.
	if x.At(0, 1) != 10 {
		t.Fatal("FitTransform mutated input")
	}
}

func TestMinMaxConstantColumn(t *testing.T) {
	x := mat.FromRows([][]float64{{7, 1}, {7, 2}})
	out := FitTransform(NewMinMax(), x)
	if out.At(0, 0) != 0 || out.At(1, 0) != 0 {
		t.Fatalf("constant column should scale to 0: %v", out.Data)
	}
}

func TestMinMaxExtrapolatesOutOfRange(t *testing.T) {
	train := mat.FromRows([][]float64{{0}, {10}})
	s := NewMinMax()
	s.Fit(train)
	test := mat.FromRows([][]float64{{20}, {-10}})
	out := s.TransformInto(&mat.Matrix{}, test)
	if out.At(0, 0) != 2 || out.At(1, 0) != -1 {
		t.Fatalf("extrapolation = %v", out.Data)
	}
}

func TestStandardBasic(t *testing.T) {
	x := mat.FromRows([][]float64{{2}, {4}, {4}, {4}, {5}, {5}, {7}, {9}})
	out := FitTransform(NewStandard(), x)
	col := out.ColInto(make([]float64, out.Rows), 0)
	if math.Abs(mat.Mean(col)) > 1e-12 {
		t.Fatalf("mean after standard = %v", mat.Mean(col))
	}
	if math.Abs(mat.Std(col)-1) > 1e-12 {
		t.Fatalf("std after standard = %v", mat.Std(col))
	}
}

func TestRobustBasic(t *testing.T) {
	x := mat.FromRows([][]float64{{1}, {2}, {3}, {4}, {100}})
	out := FitTransform(NewRobust(), x)
	// Median 3 maps to 0.
	if out.At(2, 0) != 0 {
		t.Fatalf("median should map to 0: %v", out.Data)
	}
	// The outlier remains an outlier but is scaled by IQR, not range.
	if out.At(4, 0) < 10 {
		t.Fatalf("outlier = %v", out.At(4, 0))
	}
}

func TestTransformBeforeFitPanics(t *testing.T) {
	for _, s := range []Scaler{NewMinMax(), NewStandard(), NewRobust()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic before Fit", s.Kind())
				}
			}()
			s.TransformInto(&mat.Matrix{}, mat.New(1, 1))
		}()
	}
}

func TestTransformWidthMismatchPanics(t *testing.T) {
	s := NewMinMax()
	s.Fit(mat.New(2, 3))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for width mismatch")
		}
	}()
	s.TransformInto(&mat.Matrix{}, mat.New(2, 4))
}

func TestPersistenceRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := mat.Randn(20, 5, 3, rng)
	for _, kind := range []string{"minmax", "standard", "robust"} {
		s, err := New(kind)
		if err != nil {
			t.Fatal(err)
		}
		s.Fit(x)
		blob, err := Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		restored, err := Unmarshal(blob)
		if err != nil {
			t.Fatal(err)
		}
		if restored.Kind() != kind {
			t.Fatalf("kind = %q", restored.Kind())
		}
		test := mat.Randn(7, 5, 3, rng)
		if !mat.Equal(s.TransformInto(&mat.Matrix{}, test), restored.TransformInto(&mat.Matrix{}, test), 0) {
			t.Fatalf("%s: restored scaler differs", kind)
		}
	}
}

func TestUnknownKind(t *testing.T) {
	if _, err := New("nope"); err == nil {
		t.Fatal("expected error for unknown kind")
	}
	if _, err := Unmarshal([]byte(`{"kind":"nope","state":{}}`)); err == nil {
		t.Fatal("expected error for unknown persisted kind")
	}
}

// Property: MinMax training-set outputs always lie in [0,1].
func TestQuickMinMaxRange(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := mat.Randn(2+rng.Intn(30), 1+rng.Intn(8), 100, rng)
		out := FitTransform(NewMinMax(), x)
		for _, v := range out.Data {
			if v < -1e-12 || v > 1+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: scaling is invertible information-wise — relative order within a
// column is preserved by all three scalers.
func TestQuickOrderPreserved(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := mat.Randn(5+rng.Intn(20), 1, 10, rng)
		for _, s := range []Scaler{NewMinMax(), NewStandard(), NewRobust()} {
			out := FitTransform(s, x)
			in := x.ColInto(make([]float64, x.Rows), 0)
			sc := out.ColInto(make([]float64, out.Rows), 0)
			for i := 1; i < len(in); i++ {
				if (in[i] > in[i-1]) != (sc[i] > sc[i-1]) && in[i] != in[i-1] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

package timeseries

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestInterpolateInteriorGap(t *testing.T) {
	s := Series{Values: []float64{1, Missing, Missing, 4}}
	n := s.Interpolate()
	if n != 2 {
		t.Fatalf("filled %d, want 2", n)
	}
	want := []float64{1, 2, 3, 4}
	for i, v := range want {
		if math.Abs(s.Values[i]-v) > 1e-12 {
			t.Fatalf("Values = %v", s.Values)
		}
	}
}

func TestInterpolateLeadingTrailing(t *testing.T) {
	s := Series{Values: []float64{Missing, 5, Missing}}
	s.Interpolate()
	if s.Values[0] != 5 || s.Values[2] != 5 {
		t.Fatalf("Values = %v", s.Values)
	}
}

func TestInterpolateAllMissing(t *testing.T) {
	s := Series{Values: []float64{Missing, Missing}}
	n := s.Interpolate()
	if n != 2 || s.Values[0] != 0 || s.Values[1] != 0 {
		t.Fatalf("Values = %v filled=%d", s.Values, n)
	}
}

func TestInterpolateNoMissing(t *testing.T) {
	s := Series{Values: []float64{1, 2, 3}}
	if n := s.Interpolate(); n != 0 {
		t.Fatalf("filled %d on clean series", n)
	}
}

func TestDiff(t *testing.T) {
	s := Series{Values: []float64{10, 13, 13, 20}}
	s.Diff()
	want := []float64{0, 3, 0, 7}
	for i, v := range want {
		if s.Values[i] != v {
			t.Fatalf("Diff = %v", s.Values)
		}
	}
	empty := Series{}
	empty.Diff() // must not panic
}

func TestTableAddColumnValidation(t *testing.T) {
	tb := NewTable([]int64{1, 2, 3})
	tb.AddColumn("a", []float64{1, 2, 3})
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"length mismatch", func() { tb.AddColumn("b", []float64{1}) }},
		{"duplicate", func() { tb.AddColumn("a", []float64{1, 2, 3}) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", tc.name)
				}
			}()
			tc.fn()
		}()
	}
}

func TestTrimBoundary(t *testing.T) {
	ts := make([]int64, 10)
	vals := make([]float64, 10)
	for i := range ts {
		ts[i] = int64(i)
		vals[i] = float64(i)
	}
	tb := NewTable(ts)
	tb.AddColumn("m", vals)
	tb.TrimBoundary(2)
	if tb.Len() != 6 || tb.Timestamps[0] != 2 || tb.Timestamps[5] != 7 {
		t.Fatalf("after trim: %v", tb.Timestamps)
	}
	if tb.Column("m")[0] != 2 {
		t.Fatalf("column not trimmed: %v", tb.Column("m"))
	}
}

func TestTrimBoundaryDegenerate(t *testing.T) {
	tb := NewTable([]int64{1, 2, 3})
	tb.AddColumn("m", []float64{1, 2, 3})
	tb.TrimBoundary(60)
	if tb.Len() != 1 {
		t.Fatalf("degenerate trim kept %d rows", tb.Len())
	}
	empty := NewTable(nil)
	empty.TrimBoundary(60) // must not panic
}

func TestAlign(t *testing.T) {
	a := NewTable([]int64{1, 2, 3, 4})
	a.AddColumn("x::s1", []float64{10, 20, 30, 40})
	b := NewTable([]int64{2, 3, 5})
	b.AddColumn("y::s2", []float64{200, 300, 500})
	out := Align(a, b)
	if out.Len() != 2 || out.Timestamps[0] != 2 || out.Timestamps[1] != 3 {
		t.Fatalf("aligned timestamps = %v", out.Timestamps)
	}
	if got := out.Column("x::s1"); got[0] != 20 || got[1] != 30 {
		t.Fatalf("x column = %v", got)
	}
	if got := out.Column("y::s2"); got[0] != 200 || got[1] != 300 {
		t.Fatalf("y column = %v", got)
	}
	if out.NumMetrics() != 2 {
		t.Fatalf("NumMetrics = %d", out.NumMetrics())
	}
}

func TestAlignEmpty(t *testing.T) {
	if Align().Len() != 0 {
		t.Fatal("Align() should be empty")
	}
}

func TestWindow(t *testing.T) {
	tb := NewTable([]int64{10, 20, 30, 40})
	tb.AddColumn("m", []float64{1, 2, 3, 4})
	w := tb.Window(15, 40)
	if w.Len() != 2 || w.Column("m")[0] != 2 || w.Column("m")[1] != 3 {
		t.Fatalf("window = %v %v", w.Timestamps, w.Column("m"))
	}
	// Window copies: mutating the window must not affect the parent.
	w.Column("m")[0] = 99
	if tb.Column("m")[1] == 99 {
		t.Fatal("Window must copy")
	}
}

func TestDiffColumnsIgnoresUnknown(t *testing.T) {
	tb := NewTable([]int64{1, 2})
	tb.AddColumn("acc", []float64{5, 9})
	tb.DiffColumns([]string{"acc", "missing"})
	if v := tb.Column("acc"); v[0] != 0 || v[1] != 4 {
		t.Fatalf("DiffColumns = %v", v)
	}
}

// Property: interpolation leaves no missing values and preserves observed
// points exactly.
func TestQuickInterpolateComplete(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		vals := make([]float64, n)
		type obs struct {
			i int
			v float64
		}
		var observed []obs
		for i := range vals {
			if rng.Float64() < 0.4 {
				vals[i] = Missing
			} else {
				vals[i] = rng.NormFloat64() * 10
				observed = append(observed, obs{i, vals[i]})
			}
		}
		s := Series{Values: vals}
		s.Interpolate()
		for _, v := range s.Values {
			if IsMissing(v) {
				return false
			}
		}
		for _, o := range observed {
			if s.Values[o.i] != o.v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: interpolated values never exceed the range of their bracketing
// observations (linearity implies in-hull values).
func TestQuickInterpolateBounded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		vals := make([]float64, n)
		var lo, hi float64 = math.Inf(1), math.Inf(-1)
		any := false
		for i := range vals {
			if rng.Float64() < 0.5 {
				vals[i] = Missing
			} else {
				vals[i] = rng.Float64() * 100
				if vals[i] < lo {
					lo = vals[i]
				}
				if vals[i] > hi {
					hi = vals[i]
				}
				any = true
			}
		}
		if !any {
			return true
		}
		s := Series{Values: vals}
		s.Interpolate()
		for _, v := range s.Values {
			if v < lo-1e-9 || v > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

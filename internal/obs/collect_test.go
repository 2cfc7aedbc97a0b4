package obs

import (
	"reflect"
	"testing"
)

// TestCollectDeterministicOrder pins the scrape surface: families sorted
// by name, series by label values, histograms decomposed into cumulative
// _bucket samples plus _sum and _count. Two passes must see identical
// sequences — the tsdb keys series on (name, label values) and relies on
// a stable enumeration.
func TestCollectDeterministicOrder(t *testing.T) {
	r := NewRegistry()
	cv := r.NewCounterVec("zz_total", "t", "k")
	cv.With("b").Add(2)
	cv.With("a").Inc()
	r.NewGauge("aa_gauge", "t").Set(7)
	h := r.NewHistogram("mm_seconds", "t", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(99)

	collect := func() []SamplePoint {
		var got []SamplePoint
		r.Collect(func(p SamplePoint) { got = append(got, p) })
		return got
	}
	got := collect()

	want := []SamplePoint{
		{Name: "aa_gauge", Labels: []string{}, Values: []string{}, Value: 7},
		{Name: "mm_seconds_bucket", Labels: []string{"le"}, Values: []string{"1"}, Value: 1},
		{Name: "mm_seconds_bucket", Labels: []string{"le"}, Values: []string{"2"}, Value: 2},
		{Name: "mm_seconds_bucket", Labels: []string{"le"}, Values: []string{"+Inf"}, Value: 3},
		{Name: "mm_seconds_sum", Labels: []string{}, Values: []string{}, Value: 101},
		{Name: "mm_seconds_count", Labels: []string{}, Values: []string{}, Value: 3},
		{Name: "zz_total", Labels: []string{"k"}, Values: []string{"a"}, Value: 1},
		{Name: "zz_total", Labels: []string{"k"}, Values: []string{"b"}, Value: 2},
	}
	if len(got) != len(want) {
		t.Fatalf("collected %d samples, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i].Name != want[i].Name || got[i].Value != want[i].Value ||
			!sliceEq(got[i].Labels, want[i].Labels) || !sliceEq(got[i].Values, want[i].Values) {
			t.Errorf("sample %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if again := collect(); !reflect.DeepEqual(got, again) {
		t.Fatal("two Collect passes diverge")
	}
}

func sliceEq(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

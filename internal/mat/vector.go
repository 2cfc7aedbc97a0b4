package mat

import (
	"math"
	"sort"
)

// Dot returns the inner product of a and b. It panics if lengths differ.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("mat: Dot length mismatch")
	}
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Axpy computes y ← a·x + y in place.
func Axpy(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic("mat: Axpy length mismatch")
	}
	for i, v := range x {
		y[i] += a * v
	}
}

// EuclideanDistance returns the L2 distance between a and b.
func EuclideanDistance(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("mat: EuclideanDistance length mismatch")
	}
	s := 0.0
	for i, v := range a {
		d := v - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Mean returns the arithmetic mean of v, or 0 for an empty slice.
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// Variance returns the population variance of v, or 0 when len(v) < 2.
func Variance(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	m := Mean(v)
	s := 0.0
	for _, x := range v {
		d := x - m
		s += d * d
	}
	return s / float64(len(v))
}

// Std returns the population standard deviation of v.
func Std(v []float64) float64 { return math.Sqrt(Variance(v)) }

// Min returns the smallest element of v. It panics on an empty slice.
func Min(v []float64) float64 {
	if len(v) == 0 {
		panic("mat: Min of empty slice")
	}
	m := v[0]
	for _, x := range v[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element of v. It panics on an empty slice.
func Max(v []float64) float64 {
	if len(v) == 0 {
		panic("mat: Max of empty slice")
	}
	m := v[0]
	for _, x := range v[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// ArgMax returns the index of the largest element, or -1 for an empty slice.
func ArgMax(v []float64) int {
	if len(v) == 0 {
		return -1
	}
	best := 0
	for i, x := range v {
		if x > v[best] {
			best = i
		}
	}
	return best
}

// ArgMin returns the index of the smallest element, or -1 for an empty slice.
func ArgMin(v []float64) int {
	if len(v) == 0 {
		return -1
	}
	best := 0
	for i, x := range v {
		if x < v[best] {
			best = i
		}
	}
	return best
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of v using linear
// interpolation between closest ranks, matching numpy.percentile's default.
// It panics on an empty slice.
func Percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		panic("mat: Percentile of empty slice")
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	s := make([]float64, len(v))
	copy(s, v)
	sort.Float64s(s)
	return PercentileSorted(s, p)
}

// PercentileSorted returns the p-th percentile (0 ≤ p ≤ 100) of s, which
// must already be sorted ascending. It is the allocation-free core of
// Percentile for hot paths that sort once and take many percentiles.
// It panics on an empty slice.
func PercentileSorted(s []float64, p float64) float64 {
	if len(s) == 0 {
		panic("mat: PercentileSorted of empty slice")
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	if len(s) == 1 {
		return s[0]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// MedianSorted returns the 50th percentile of an ascending-sorted slice.
func MedianSorted(s []float64) float64 { return PercentileSorted(s, 50) }

// MAE returns the mean absolute error between a and b.
func MAE(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("mat: MAE length mismatch")
	}
	if len(a) == 0 {
		return 0
	}
	s := 0.0
	for i, v := range a {
		s += math.Abs(v - b[i])
	}
	return s / float64(len(a))
}

// MSE returns the mean squared error between a and b.
func MSE(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("mat: MSE length mismatch")
	}
	if len(a) == 0 {
		return 0
	}
	s := 0.0
	for i, v := range a {
		d := v - b[i]
		s += d * d
	}
	return s / float64(len(a))
}

// Clamp returns x limited to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

package features

import (
	"math"

	"prodigy/internal/mat"
)

// This file registers trend- and chunk-based extractors: linear regression
// over the index axis, aggregate linear trend over chunks, per-chunk energy
// ratios, index-mass quantiles and autoregressive coefficients. These are
// the features that separate drifting behaviour (e.g. a memory leak's
// monotone MemFree decline) from stationary noise.

const (
	trendChunks = 10
	arOrder     = 4
)

var massQs = []float64{0.25, 0.5, 0.75}

func init() {
	register("linear_trend", TierEfficient,
		[]string{"linear_trend__slope", "linear_trend__intercept", "linear_trend__rvalue"}, exLinearTrend)
	register("agg_linear_trend", TierEfficient,
		[]string{fmtParam("agg_linear_trend_slope", "agg", "mean"), fmtParam("agg_linear_trend_slope", "agg", "max")}, exAggLinearTrend)
	register("energy_ratio_by_chunks", TierEfficient, lagNames("energy_ratio_by_chunks", "chunk", 0, trendChunks-1), exEnergyRatioByChunks)
	register("index_mass_quantile", TierEfficient, massQuantileNames(), exIndexMassQuantile)
	register("ar_coefficient", TierEfficient, lagNames("ar_coefficient", "k", 1, arOrder), exARCoefficient)
}

func massQuantileNames() []string {
	out := make([]string, len(massQs))
	for i, q := range massQs {
		out[i] = fmtParam("index_mass_quantile", "q", q)
	}
	return out
}

func exLinearTrend(x, dst []float64, _ *Workspace) {
	dst[0], dst[1], dst[2] = linearTrend(x)
}

// exAggLinearTrend emits the slope of per-chunk means and per-chunk maxima
// over trendChunks chunks: robust trend indicators for noisy series.
func exAggLinearTrend(x, dst []float64, ws *Workspace) {
	means := chunkAggInto(ws.floatA(trendChunks), x, trendChunks, mat.Mean)
	dst[0], _, _ = linearTrend(means)
	maxs := chunkAggInto(ws.floatA(trendChunks), x, trendChunks, chunkMax)
	dst[1], _, _ = linearTrend(maxs)
}

func exEnergyRatioByChunks(x, dst []float64, ws *Workspace) {
	energies := chunkAggInto(ws.floatA(trendChunks), x, trendChunks, chunkEnergy)
	total := 0.0
	for _, e := range energies {
		total += e
	}
	if total <= 0 {
		return
	}
	for i, e := range energies {
		dst[i] = e / total
	}
}

func exIndexMassQuantile(x, dst []float64, _ *Workspace) {
	for i, q := range massQs {
		dst[i] = indexMassQuantile(x, q)
	}
}

// exARCoefficient emits AR(arOrder) coefficients fitted by Yule-Walker;
// zeros when the series is too short or constant.
func exARCoefficient(x, dst []float64, ws *Workspace) {
	r := ws.floatA(arOrder + 1)
	a := ws.floatB(arOrder + 1)
	if arFit(x, r, a, nil) {
		copy(dst, a[1:])
	}
}

// linearTrend fits y = slope·t + intercept by least squares over t = 0..n-1
// and returns the slope, intercept and Pearson r between x and t.
func linearTrend(x []float64) (slope, intercept, r float64) {
	n := len(x)
	if n < 2 {
		if n == 1 {
			return 0, x[0], 0
		}
		return 0, 0, 0
	}
	tMean := float64(n-1) / 2
	xMean := mat.Mean(x)
	var stx, stt, sxx float64
	for t, v := range x {
		dt := float64(t) - tMean
		dx := v - xMean
		stx += dt * dx
		stt += dt * dt
		sxx += dx * dx
	}
	if stt == 0 {
		return 0, xMean, 0
	}
	slope = stx / stt
	intercept = xMean - slope*tMean
	if sxx > 0 {
		r = stx / math.Sqrt(stt*sxx)
	}
	return slope, intercept, r
}

// chunkAggInto splits x into count nearly equal chunks and applies agg to
// each, filling buf (whose length must be at least count) and returning the
// filled prefix. Empty trailing chunks (when len(x) < count) are dropped.
func chunkAggInto(buf, x []float64, count int, agg func([]float64) float64) []float64 {
	n := len(x)
	if n == 0 || count < 1 {
		return buf[:0]
	}
	if count > n {
		count = n
	}
	out := buf[:0]
	for c := 0; c < count; c++ {
		lo := c * n / count
		hi := (c + 1) * n / count
		if hi > lo {
			out = append(out, agg(x[lo:hi]))
		}
	}
	return out
}

func chunkMax(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return mat.Max(v)
}

func chunkEnergy(v []float64) float64 {
	s := 0.0
	for _, u := range v {
		s += u * u
	}
	return s
}

// indexMassQuantile returns the relative index where q of the total absolute
// mass of the series is reached.
func indexMassQuantile(x []float64, q float64) float64 {
	n := len(x)
	if n == 0 {
		return 0
	}
	total := 0.0
	for _, v := range x {
		total += math.Abs(v)
	}
	if total == 0 {
		return 0
	}
	target := q * total
	cum := 0.0
	for i, v := range x {
		cum += math.Abs(v)
		if cum >= target {
			return float64(i+1) / float64(n)
		}
	}
	return 1
}

// arFit computes the autocovariances of x into r (length p+1 for order p),
// then solves the Yule-Walker equations by Levinson-Durbin recursion into a
// (length p+1, zeroed here): after the call a[1..p] holds the AR
// coefficients. When pacf is non-nil, pacf[k-1] receives the k-th
// reflection coefficient — the partial autocorrelation at lag k. It reports
// false when the series is too short or has no variance, in which case
// callers keep their zero defaults.
func arFit(x []float64, r, a, pacf []float64) bool {
	p := len(r) - 1
	n := len(x)
	if n <= p+1 {
		return false
	}
	m := mat.Mean(x)
	for k := 0; k <= p; k++ {
		s := 0.0
		for i := 0; i < n-k; i++ {
			s += (x[i] - m) * (x[i+k] - m)
		}
		r[k] = s / float64(n)
	}
	if r[0] == 0 {
		return false
	}
	for i := range a {
		a[i] = 0
	}
	e := r[0]
	for k := 1; k <= p; k++ {
		acc := r[k]
		for j := 1; j < k; j++ {
			acc -= a[j] * r[k-j]
		}
		if e == 0 {
			break
		}
		lambda := acc / e
		if pacf != nil {
			pacf[k-1] = lambda
		}
		// Symmetric in-place update: a[j] and a[k-j] only need each
		// other's old values, so walking the pairs inward needs no
		// temporary copy of the coefficient prefix.
		for j, l := 1, k-1; j <= l; j, l = j+1, l-1 {
			aj, al := a[j], a[l]
			a[j] = aj - lambda*al
			if j != l {
				a[l] = al - lambda*aj
			}
		}
		a[k] = lambda
		e *= 1 - lambda*lambda
	}
	return true
}

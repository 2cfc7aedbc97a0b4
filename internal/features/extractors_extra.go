package features

import (
	"math"
	"slices"

	"prodigy/internal/mat"
)

// This file registers additional TSFRESH-family extractors beyond the core
// catalog: partial autocorrelation, change-quantile corridors, robust
// dispersion, recurrence statistics, and monotone-run features. They
// deepen catalog parity with the paper's 794-features-per-metric TSFRESH
// configuration.

const pacfMaxLag = 5

// cqCorridors are the [ql, qh] quantile corridors of change_quantiles.
var cqCorridors = [][2]float64{{0.0, 0.4}, {0.4, 0.8}, {0.2, 0.8}}

func init() {
	register("partial_autocorrelation", TierEfficient, lagNames("partial_autocorrelation", "lag", 1, pacfMaxLag), exPartialAutocorrelation)
	register("change_quantiles", TierEfficient, changeQuantileNames(), exChangeQuantiles)
	register("mean_absolute_deviation", TierMinimal, []string{"mean_absolute_deviation"}, exMeanAbsoluteDeviation)
	register("median_absolute_deviation", TierMinimal, []string{"median_absolute_deviation"}, exMedianAbsoluteDeviation)
	register("ratio_value_number_to_length", TierMinimal, []string{"ratio_value_number_to_length"}, exRatioValueNumberToLength)
	register("sum_of_reoccurring_values", TierMinimal, []string{"sum_of_reoccurring_values"}, exSumOfReoccurringValues)
	register("sum_of_reoccurring_data_points", TierMinimal, []string{"sum_of_reoccurring_data_points"}, exSumOfReoccurringDataPoints)
	register("range_count_mid", TierMinimal, []string{"range_count_mid"}, exRangeCountMid)
	register("number_crossing_median", TierMinimal, []string{"number_crossing_median"}, exNumberCrossingMedian)
	register("longest_monotone_run", TierMinimal, []string{"longest_increasing_run", "longest_decreasing_run"}, exLongestMonotoneRun)
	register("std_of_changes", TierMinimal, []string{"std_of_changes"}, exStdOfChanges)
	register("energy_ratio_halves", TierMinimal, []string{"energy_ratio_halves"}, exEnergyRatioHalves)
}

func changeQuantileNames() []string {
	out := make([]string, 0, len(cqCorridors)*2)
	for _, c := range cqCorridors {
		tag := int(c[0]*10)*10 + int(c[1]*10)
		out = append(out, fmtParam("change_quantiles_mean", "q", tag), fmtParam("change_quantiles_std", "q", tag))
	}
	return out
}

// exPartialAutocorrelation emits PACF values for lags 1..pacfMaxLag: the
// PACF at lag k is the k-th reflection coefficient of the Levinson-Durbin
// recursion, which arFit writes directly into dst.
func exPartialAutocorrelation(x, dst []float64, ws *Workspace) {
	r := ws.floatA(pacfMaxLag + 1)
	a := ws.floatB(pacfMaxLag + 1)
	arFit(x, r, a, dst)
}

func exChangeQuantiles(x, dst []float64, ws *Workspace) {
	if len(x) < 2 {
		return
	}
	s := ws.sortedCopy(x)
	buf := ws.floatA(len(x) - 1)
	for i, c := range cqCorridors {
		lo := mat.PercentileSorted(s, c[0]*100)
		hi := mat.PercentileSorted(s, c[1]*100)
		dst[2*i], dst[2*i+1] = corridorChanges(x, lo, hi, buf)
	}
}

func exMeanAbsoluteDeviation(x, dst []float64, _ *Workspace) {
	if len(x) == 0 {
		return
	}
	m := mat.Mean(x)
	s := 0.0
	for _, v := range x {
		s += math.Abs(v - m)
	}
	dst[0] = s / float64(len(x))
}

func exMedianAbsoluteDeviation(x, dst []float64, ws *Workspace) {
	if len(x) == 0 {
		return
	}
	med := mat.MedianSorted(ws.sortedCopy(x))
	dev := ws.floatA(len(x))
	for i, v := range x {
		dev[i] = math.Abs(v - med)
	}
	slices.Sort(dev)
	dst[0] = mat.MedianSorted(dev)
}

func exRatioValueNumberToLength(x, dst []float64, ws *Workspace) {
	if len(x) == 0 {
		return
	}
	s := ws.sortedCopy(x)
	distinct := 0
	for i := 0; i < len(s); {
		j := i + 1
		for j < len(s) && s[j] == s[i] {
			j++
		}
		distinct++
		i = j
	}
	dst[0] = float64(distinct) / float64(len(x))
}

// exSumOfReoccurringValues counts each reoccurring distinct value once,
// scanning equal-value runs of the sorted copy so accumulation happens in
// ascending value order — deterministic without a value-count map.
func exSumOfReoccurringValues(x, dst []float64, ws *Workspace) {
	s := ws.sortedCopy(x)
	sum := 0.0
	for i := 0; i < len(s); {
		j := i + 1
		for j < len(s) && s[j] == s[i] {
			j++
		}
		if j-i > 1 {
			sum += s[i]
		}
		i = j
	}
	dst[0] = sum
}

func exSumOfReoccurringDataPoints(x, dst []float64, ws *Workspace) {
	s := ws.sortedCopy(x)
	sum := 0.0
	for i := 0; i < len(s); {
		j := i + 1
		for j < len(s) && s[j] == s[i] {
			j++
		}
		if j-i > 1 {
			sum += s[i] * float64(j-i)
		}
		i = j
	}
	dst[0] = sum
}

// exRangeCountMid emits the fraction of samples within one standard
// deviation of the mean.
func exRangeCountMid(x, dst []float64, _ *Workspace) {
	if len(x) == 0 {
		return
	}
	m, sd := mat.Mean(x), mat.Std(x)
	n := 0
	for _, v := range x {
		if v >= m-sd && v <= m+sd {
			n++
		}
	}
	dst[0] = float64(n) / float64(len(x))
}

func exNumberCrossingMedian(x, dst []float64, ws *Workspace) {
	if len(x) == 0 {
		return
	}
	med := mat.MedianSorted(ws.sortedCopy(x))
	n := 0
	for i := 1; i < len(x); i++ {
		if (x[i-1] > med) != (x[i] > med) {
			n++
		}
	}
	dst[0] = float64(n)
}

func exLongestMonotoneRun(x, dst []float64, _ *Workspace) {
	up, down := longestMonotoneRuns(x)
	dst[0], dst[1] = float64(up), float64(down)
}

func exStdOfChanges(x, dst []float64, ws *Workspace) {
	if len(x) < 2 {
		return
	}
	d := ws.floatA(len(x) - 1)
	for i := 1; i < len(x); i++ {
		d[i-1] = x[i] - x[i-1]
	}
	dst[0] = mat.Std(d)
}

// exEnergyRatioHalves emits the second-half to total energy ratio: a cheap
// drift indicator.
func exEnergyRatioHalves(x, dst []float64, _ *Workspace) {
	n := len(x)
	if n < 2 {
		return
	}
	var first, second float64
	for i, v := range x {
		if i < n/2 {
			first += v * v
		} else {
			second += v * v
		}
	}
	if first+second == 0 {
		return
	}
	dst[0] = second / (first + second)
}

// corridorChanges accumulates |diff(x)| over consecutive pairs lying inside
// [lo, hi] into buf (len(x)-1 capacity suffices) and returns the mean and
// std of the collected changes.
func corridorChanges(x []float64, lo, hi float64, buf []float64) (meanAbs, stdAbs float64) {
	changes := buf[:0]
	for i := 1; i < len(x); i++ {
		if x[i-1] >= lo && x[i-1] <= hi && x[i] >= lo && x[i] <= hi {
			changes = append(changes, math.Abs(x[i]-x[i-1]))
		}
	}
	if len(changes) == 0 {
		return 0, 0
	}
	return mat.Mean(changes), mat.Std(changes)
}

// longestMonotoneRuns returns the longest strictly increasing and strictly
// decreasing run lengths (counted in steps).
func longestMonotoneRuns(x []float64) (up, down int) {
	curUp, curDown := 0, 0
	for i := 1; i < len(x); i++ {
		if x[i] > x[i-1] {
			curUp++
			curDown = 0
		} else if x[i] < x[i-1] {
			curDown++
			curUp = 0
		} else {
			curUp, curDown = 0, 0
		}
		if curUp > up {
			up = curUp
		}
		if curDown > down {
			down = curDown
		}
	}
	return up, down
}

package main

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of samples (sorted
// ascending) and whether at least minBeyond samples lie beyond it — the
// rule for reporting a tail percentile at all.
func percentile(sorted []float64, q float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n-rank >= minBeyond
}

// samplesFor returns the fewest samples a q-percentile needs to have
// minBeyond samples beyond it.
func samplesFor(q float64) int {
	n := minBeyond
	for {
		if _, ok := percentile(make([]float64, n), q); ok {
			return n
		}
		n++
	}
}

// sortedMs converts durations to sorted milliseconds.
func sortedMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	sort.Float64s(out)
	return out
}

// median of unsorted values (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// rawSpeed is the slowness of a host taken as the reference, for figures
// reported unscaled.
func rawSpeed(from, to time.Duration) float64 { return 1 }

// sum, mean and sumDur total and average samples (0 for none).
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }

func sumDur(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// result is what one request came back with.
type result struct {
	item    int // which input the request carried
	status  int
	match   bool // body equals the reference answer
	latency time.Duration
}

// tally accounts requests against the latency limit: a request is served
// only if it answered 200, matched the reference and met the limit.
// Sheds (429), errors, mismatches and late answers all count as missing.
type tally struct {
	limit      time.Duration
	attempted  int
	served     int
	shed       int
	errored    int
	mismatched int
	late       int
	latencies  []time.Duration // of every answered 200, matched or not
}

func (t *tally) add(r result) {
	t.attempted++
	switch {
	case r.status == 429:
		t.shed++
		return
	case r.status != 200:
		t.errored++
		return
	}
	t.latencies = append(t.latencies, r.latency)
	switch {
	case !r.match:
		t.mismatched++
	case r.latency > t.limit:
		t.late++
	default:
		t.served++
	}
}

// serves reports whether r counts as served.
func (t *tally) serves(r result) bool {
	return r.status == 200 && r.match && r.latency <= t.limit
}

// servedFrac is served over attempted.
func (t *tally) servedFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.served) / float64(t.attempted)
}

// failed counts attempted requests that were not served.
func (t *tally) failed() int { return t.attempted - t.served }

// poissonOffsets returns n seeded arrival offsets of a unit-rate Poisson
// process (exponential gaps, cumulative). Dividing by a rate gives the
// arrival schedule at that rate.
func poissonOffsets(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	t := 0.0
	for i := range out {
		t += rng.ExpFloat64()
		out[i] = t
	}
	return out
}

// dueTimes lays rate×window arrivals over window from start, shaped by
// the unit offsets: the first n+1 offsets are scaled so the (n+1)-th lands
// at the end of the window. Every phase at a given rate and window thus
// offers exactly the same number of requests.
func dueTimes(start time.Time, unit []float64, rate float64, window time.Duration) []time.Time {
	n := int(math.Round(rate * window.Seconds()))
	if n >= len(unit) {
		n = len(unit) - 1
	}
	scale := float64(window) / unit[n]
	out := make([]time.Time, n)
	for i := range out {
		out[i] = start.Add(time.Duration(unit[i] * scale))
	}
	return out
}

// blockStats cuts a closed loop's results (in completion order, with
// their completion offsets from the start) into blocks of size
// completions. A block runs from the previous block's last completion (or
// the start) to its own last. Over the whole blocks that end within
// window it returns the median of each block's served rate and the median
// of each block's median answered latency, in ms, each scaled to the
// reference host by the host's slowness over the block: the rate
// multiplied by it, the latency divided. Medians over blocks keep a few
// seconds of an odd host from moving a run's figures.
func blockStats(t *tally, results []result, offsets []time.Duration, size int, window time.Duration,
	slow func(from, to time.Duration) float64) (rate, p50 float64, blocks int) {
	var rates, p50s []float64
	var from time.Duration
	for end := size; end <= len(results) && offsets[end-1] <= window; end += size {
		served := 0
		var lat []time.Duration
		for _, r := range results[end-size : end] {
			if t.serves(r) {
				served++
			}
			if r.status == 200 {
				lat = append(lat, r.latency)
			}
		}
		to := offsets[end-1]
		k := slow(from, to)
		rates = append(rates, k*float64(served)/(to-from).Seconds())
		p50s = append(p50s, median(sortedMs(lat))/k)
		from = to
	}
	return median(rates), median(p50s), len(rates)
}

// f1 is the F1 of the anomalous class.
func f1(preds, truth []bool) float64 {
	tp, fp, fn := 0, 0, 0
	for i := range preds {
		switch {
		case preds[i] && truth[i]:
			tp++
		case preds[i]:
			fp++
		case truth[i]:
			fn++
		}
	}
	if tp == 0 {
		return 0
	}
	p := float64(tp) / float64(tp+fp)
	r := float64(tp) / float64(tp+fn)
	return 2 * p * r / (p + r)
}

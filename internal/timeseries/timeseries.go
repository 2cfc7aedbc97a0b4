// Package timeseries provides the multivariate time-series containers and
// preprocessing operations Prodigy applies to raw telemetry before feature
// extraction: linear interpolation of missing values, first-differencing of
// accumulated counters, boundary trimming, and timestamp alignment across
// sampler sets (paper §4.2.1, §5.4.1).
package timeseries

import (
	"fmt"
	"math"
	"sort"
)

// Missing is the sentinel recorded for a sample that was lost during
// collection. NaN matches the semantics of the production pipeline, where
// dropped LDMS samples surface as nulls.
var Missing = math.NaN()

// IsMissing reports whether v is the missing-value sentinel.
func IsMissing(v float64) bool { return math.IsNaN(v) }

// Series is a single named metric sampled at regular intervals.
type Series struct {
	Metric string
	// Values holds one sample per timestep; Missing marks dropped samples.
	Values []float64
}

// Interpolate fills Missing values by linear interpolation between the
// nearest observed neighbours, extending the first/last observation to the
// boundaries. A series with no observed values is filled with zeros.
// It returns the number of values filled.
func (s *Series) Interpolate() int {
	v := s.Values
	n := len(v)
	filled := 0
	prev := -1 // index of last observed value
	for i := 0; i < n; i++ {
		if IsMissing(v[i]) {
			continue
		}
		if prev == -1 && i > 0 {
			// Leading gap: back-fill with the first observation.
			for j := 0; j < i; j++ {
				v[j] = v[i]
				filled++
			}
		} else if prev >= 0 && i-prev > 1 {
			// Interior gap: linear interpolation.
			step := (v[i] - v[prev]) / float64(i-prev)
			for j := prev + 1; j < i; j++ {
				v[j] = v[prev] + step*float64(j-prev)
				filled++
			}
		}
		prev = i
	}
	switch {
	case prev == -1:
		// Nothing observed at all.
		for i := range v {
			v[i] = 0
			filled++
		}
	case prev < n-1:
		// Trailing gap: forward-fill with the last observation.
		for j := prev + 1; j < n; j++ {
			v[j] = v[prev]
			filled++
		}
	}
	return filled
}

// Diff replaces the series with its first difference, preserving length by
// keeping the first element as 0. This converts accumulated counters (e.g.
// procstat totals) into per-interval rates.
func (s *Series) Diff() {
	v := s.Values
	if len(v) == 0 {
		return
	}
	prev := v[0]
	v[0] = 0
	for i := 1; i < len(v); i++ {
		cur := v[i]
		v[i] = cur - prev
		prev = cur
	}
}

// Table is a multivariate time series: a shared timestamp axis and one
// column per metric. It is the in-memory analogue of the per-(job, node)
// Pandas frame the paper's DataGenerator produces.
type Table struct {
	// Timestamps are in seconds, strictly increasing.
	Timestamps []int64
	// Columns maps metric name to its values, each len(Timestamps) long.
	Columns map[string][]float64
	// Order lists metric names in a canonical order for deterministic
	// iteration. Len(Order) == len(Columns).
	Order []string
}

// NewTable creates an empty table with the given timestamp axis.
func NewTable(timestamps []int64) *Table {
	return &Table{Timestamps: timestamps, Columns: make(map[string][]float64)}
}

// Len returns the number of timesteps.
func (t *Table) Len() int { return len(t.Timestamps) }

// NumMetrics returns the number of metric columns.
func (t *Table) NumMetrics() int { return len(t.Order) }

// AddColumn appends a metric column. It panics if the length disagrees with
// the timestamp axis or the metric already exists.
func (t *Table) AddColumn(metric string, values []float64) {
	if len(values) != len(t.Timestamps) {
		panic(fmt.Sprintf("timeseries: column %q has %d values for %d timestamps", metric, len(values), len(t.Timestamps)))
	}
	if _, dup := t.Columns[metric]; dup {
		panic(fmt.Sprintf("timeseries: duplicate column %q", metric))
	}
	t.Columns[metric] = values
	t.Order = append(t.Order, metric)
}

// Column returns the values for metric, or nil if absent.
func (t *Table) Column(metric string) []float64 { return t.Columns[metric] }

// TrimBoundary removes the first and last seconds timesteps (the paper trims
// 60 s of initialization and termination noise). If the table is shorter
// than 2*seconds+1 timesteps, it trims as much as possible while keeping at
// least one timestep.
func (t *Table) TrimBoundary(seconds int) {
	n := t.Len()
	if n == 0 || seconds <= 0 {
		return
	}
	lo, hi := seconds, n-seconds
	if hi-lo < 1 {
		// Degenerate: keep the middle timestep.
		mid := n / 2
		lo, hi = mid, mid+1
	}
	t.Timestamps = t.Timestamps[lo:hi]
	for m, v := range t.Columns {
		t.Columns[m] = v[lo:hi]
	}
}

// InterpolateAll linearly interpolates missing values in every column and
// returns the total number of filled cells.
func (t *Table) InterpolateAll() int {
	total := 0
	for _, m := range t.Order {
		s := Series{Metric: m, Values: t.Columns[m]}
		total += s.Interpolate()
	}
	return total
}

// DiffColumns first-differences the named columns in place. Unknown names
// are ignored so callers can pass a static accumulated-counter list.
func (t *Table) DiffColumns(metrics []string) {
	for _, m := range metrics {
		if v, ok := t.Columns[m]; ok {
			s := Series{Metric: m, Values: v}
			s.Diff()
		}
	}
}

// SortColumns orders the metric columns lexicographically, giving tables a
// canonical layout regardless of insertion order.
func (t *Table) SortColumns() { sort.Strings(t.Order) }

// Align returns a new table restricted to timestamps present in every input
// table, with all columns from all inputs. Column name collisions panic;
// callers namespace metrics per sampler (e.g. "MemFree::meminfo"). This is
// the "find common timestamps across different samplers" step.
func Align(tables ...*Table) *Table {
	if len(tables) == 0 {
		return NewTable(nil)
	}
	// Count timestamp occurrences across tables; keep those present in all.
	count := make(map[int64]int)
	for _, tb := range tables {
		seen := make(map[int64]bool, len(tb.Timestamps))
		for _, ts := range tb.Timestamps {
			if !seen[ts] {
				seen[ts] = true
				count[ts]++
			}
		}
	}
	var common []int64
	for ts, c := range count {
		if c == len(tables) {
			common = append(common, ts)
		}
	}
	sort.Slice(common, func(i, j int) bool { return common[i] < common[j] })

	out := NewTable(common)
	for _, tb := range tables {
		// Map timestamp -> row index within tb.
		idx := make(map[int64]int, len(tb.Timestamps))
		for i, ts := range tb.Timestamps {
			idx[ts] = i
		}
		for _, m := range tb.Order {
			src := tb.Columns[m]
			col := make([]float64, len(common))
			for i, ts := range common {
				col[i] = src[idx[ts]]
			}
			out.AddColumn(m, col)
		}
	}
	return out
}

// Window returns a copy of the table restricted to timestamps in [from, to).
func (t *Table) Window(from, to int64) *Table {
	lo := sort.Search(len(t.Timestamps), func(i int) bool { return t.Timestamps[i] >= from })
	hi := sort.Search(len(t.Timestamps), func(i int) bool { return t.Timestamps[i] >= to })
	ts := make([]int64, hi-lo)
	copy(ts, t.Timestamps[lo:hi])
	out := NewTable(ts)
	for _, m := range t.Order {
		col := make([]float64, hi-lo)
		copy(col, t.Columns[m][lo:hi])
		out.AddColumn(m, col)
	}
	return out
}

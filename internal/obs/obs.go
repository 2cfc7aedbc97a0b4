// Package obs is Prodigy's self-monitoring substrate: a stdlib-only
// process-wide metrics registry (atomic counters, gauges and fixed-bucket
// histograms with percentile summaries), Prometheus text exposition,
// lightweight span tracing, and a leveled key=value logger.
//
// Prodigy is itself a monitoring system; the paper's deployment story
// (§6) runs it in production at Eclipse/Volta scale, and a detector that
// watches a supercomputer must itself be watchable. Every layer of the
// reproduction reports here — the HTTP serving layer, the scoring
// pipeline, the training loop and the streaming detector — and the
// `/metrics`, `/debug/vars` and `/debug/pprof` endpoints of prodigyd
// expose the result.
//
// Design constraints, in order: (1) hot-path cost is a handful of atomic
// operations — instrumentation must stay invisible next to matrix math;
// (2) bounded cardinality — label values come from small closed sets
// (routes, status classes, drop reasons), never from user input; (3) no
// dependencies — the registry speaks Prometheus text exposition v0.0.4
// directly.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Metric type names used in `# TYPE` exposition lines.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// DefBuckets are the default latency buckets in seconds (the Prometheus
// client convention), suitable for request and stage durations.
var DefBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// ScoreBuckets cover reconstruction-error magnitudes: healthy scores sit
// well below typical thresholds (~0.05–0.3 on scaled features), anomalies
// push past 1.
var ScoreBuckets = []float64{.01, .02, .05, .1, .15, .2, .3, .5, .75, 1, 1.5, 2.5}

// LagBuckets cover ingestion staleness in (possibly simulated) seconds.
var LagBuckets = []float64{1, 2, 5, 10, 30, 60, 120, 300}

// Registry holds metric families. All methods are safe for concurrent
// use; the intended pattern is package-level metric variables created once
// from Default at init time, then updated lock-free on hot paths.
type Registry struct {
	mu   sync.RWMutex
	fams map[string]*family
}

// Default is the process-wide registry every Prodigy component reports to.
var Default = NewRegistry()

// processStart anchors uptime reporting.
var processStart = time.Now()

// Uptime returns how long the process has been running.
func Uptime() time.Duration { return time.Since(processStart) }

// NewRegistry returns an empty registry (tests use this; production code
// uses Default).
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// family is one named metric with a fixed label schema; each distinct
// label-value combination is a series.
type family struct {
	name    string
	help    string
	typ     string
	labels  []string
	buckets []float64 // histograms only

	mu     sync.RWMutex
	series map[string]*seriesEntry
}

type seriesEntry struct {
	values []string
	metric interface{} // *Counter, *Gauge or *Histogram
}

// family returns the named family, creating it on first use. Re-registering
// with a different type or label schema is a programming error and panics:
// silent divergence would corrupt the exposition.
func (r *Registry) family(name, help, typ string, labels []string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.typ != typ || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s%v, was %s%v",
				name, typ, labels, f.typ, f.labels))
		}
		return f
	}
	f := &family{
		name: name, help: help, typ: typ,
		labels:  append([]string(nil), labels...),
		buckets: append([]float64(nil), buckets...),
		series:  make(map[string]*seriesEntry),
	}
	r.fams[name] = f
	return f
}

// seriesKey joins label values into an injective map key: the separator
// and backslash are escaped inside values, so distinct label tuples can
// never collide (("a\x1f","x") vs ("a","\x1fx")). The closed in-repo
// vocabularies never contain either byte, so the hot path stays a plain
// join.
func seriesKey(values []string) string {
	escape := false
	for _, v := range values {
		if strings.ContainsAny(v, "\x1f\\") {
			escape = true
			break
		}
	}
	if !escape {
		return strings.Join(values, "\x1f")
	}
	var b strings.Builder
	for i, v := range values {
		if i > 0 {
			b.WriteByte('\x1f')
		}
		for j := 0; j < len(v); j++ {
			if c := v[j]; c == '\\' || c == '\x1f' {
				b.WriteByte('\\')
			}
			b.WriteByte(v[j])
		}
	}
	return b.String()
}

// get returns the series for the given label values, creating it on first
// use via make.
func (f *family) get(values []string, make func(vals []string) interface{}) interface{} {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants labels %v, got %d values", f.name, f.labels, len(values)))
	}
	key := seriesKey(values)
	f.mu.RLock()
	e, ok := f.series[key]
	f.mu.RUnlock()
	if ok {
		return e.metric
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if e, ok := f.series[key]; ok {
		return e.metric
	}
	vals := append([]string(nil), values...)
	m := make(vals)
	f.series[key] = &seriesEntry{values: vals, metric: m}
	return m
}

// --- atomic float64 helpers ---

func loadFloat(bits *atomic.Uint64) float64 { return math.Float64frombits(bits.Load()) }

func storeFloat(bits *atomic.Uint64, v float64) { bits.Store(math.Float64bits(v)) }

func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// --- Counter ---

// Counter is a monotonically increasing value. All methods are lock-free
// and safe for concurrent use.
type Counter struct{ bits atomic.Uint64 }

// Inc adds 1.
func (c *Counter) Inc() { addFloat(&c.bits, 1) }

// Add increases the counter; negative deltas are ignored (counters are
// monotone by contract).
func (c *Counter) Add(v float64) {
	if v > 0 {
		addFloat(&c.bits, v)
	}
}

// Value returns the current count.
func (c *Counter) Value() float64 { return loadFloat(&c.bits) }

// CounterVec is a counter family with labels.
type CounterVec struct{ fam *family }

// With returns the counter for the given label values (in declaration
// order), creating it on first use.
func (v *CounterVec) With(values ...string) *Counter {
	return v.fam.get(values, func([]string) interface{} { return &Counter{} }).(*Counter)
}

// NewCounterVec registers (or returns) a labeled counter family.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{fam: r.family(name, help, typeCounter, labels, nil)}
}

// NewCounter registers (or returns) an unlabeled counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	return r.NewCounterVec(name, help).With()
}

// --- Gauge ---

// Gauge is a value that can go up and down. All methods are safe for
// concurrent use.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the value.
func (g *Gauge) Set(v float64) { storeFloat(&g.bits, v) }

// Add shifts the value by v (negative to decrease).
func (g *Gauge) Add(v float64) { addFloat(&g.bits, v) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return loadFloat(&g.bits) }

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ fam *family }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.fam.get(values, func([]string) interface{} { return &Gauge{} }).(*Gauge)
}

// NewGaugeVec registers (or returns) a labeled gauge family.
func (r *Registry) NewGaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{fam: r.family(name, help, typeGauge, labels, nil)}
}

// NewGauge registers (or returns) an unlabeled gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	return r.NewGaugeVec(name, help).With()
}

// --- Histogram ---

// Histogram counts observations into fixed buckets and tracks their sum.
// Observe is a bucket search plus two atomic adds; percentile summaries
// are estimated from the bucket counts on demand.
type Histogram struct {
	upper   []float64 // ascending upper bounds, +Inf implicit
	counts  []atomic.Uint64
	sumBits atomic.Uint64
	count   atomic.Uint64
}

func newHistogram(buckets []float64) *Histogram {
	return &Histogram{upper: buckets, counts: make([]atomic.Uint64, len(buckets)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.upper, v) // first bucket with upper >= v
	h.counts[i].Add(1)
	addFloat(&h.sumBits, v)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return loadFloat(&h.sumBits) }

// snapshot returns cumulative bucket counts, total and sum, read once.
func (h *Histogram) snapshot() (cum []uint64, total uint64, sum float64) {
	cum = make([]uint64, len(h.counts))
	var running uint64
	for i := range h.counts {
		running += h.counts[i].Load()
		cum[i] = running
	}
	return cum, h.count.Load(), h.Sum()
}

// Quantile estimates the q-quantile (0 < q < 1) by linear interpolation
// within the bucket that contains it — the same estimate Prometheus's
// histogram_quantile computes server-side. Returns 0 with no observations;
// observations in the overflow (+Inf) bucket clamp to the largest finite
// bound.
func (h *Histogram) Quantile(q float64) float64 {
	cum, total, _ := h.snapshot()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	for i, c := range cum {
		if float64(c) >= rank {
			if i >= len(h.upper) { // overflow bucket
				return h.upper[len(h.upper)-1]
			}
			lo := 0.0
			prev := uint64(0)
			if i > 0 {
				lo = h.upper[i-1]
				prev = cum[i-1]
			}
			width := h.upper[i] - lo
			inBucket := float64(cum[i] - prev)
			if inBucket == 0 {
				return h.upper[i]
			}
			return lo + width*(rank-float64(prev))/inBucket
		}
	}
	return h.upper[len(h.upper)-1]
}

// HistogramVec is a histogram family with labels; every series shares the
// family's bucket layout.
type HistogramVec struct{ fam *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	buckets := v.fam.buckets
	return v.fam.get(values, func([]string) interface{} { return newHistogram(buckets) }).(*Histogram)
}

// NewHistogramVec registers (or returns) a labeled histogram family with
// the given ascending bucket upper bounds (+Inf is implicit).
func (r *Registry) NewHistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	if !sort.Float64sAreSorted(buckets) {
		panic(fmt.Sprintf("obs: histogram %q buckets not ascending: %v", name, buckets))
	}
	return &HistogramVec{fam: r.family(name, help, typeHistogram, labels, buckets)}
}

// NewHistogram registers (or returns) an unlabeled histogram.
func (r *Registry) NewHistogram(name, help string, buckets []float64) *Histogram {
	return r.NewHistogramVec(name, help, buckets).With()
}

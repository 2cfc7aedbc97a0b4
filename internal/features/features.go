// Package features implements Prodigy's statistical feature extraction stage
// (paper §3.1): a from-scratch catalog of time-series characterization
// methods in the style of TSFRESH, spanning descriptive statistics,
// information-theoretic measures, spectral features, trend features and
// nonlinearity measures (C3, time-reversal asymmetry, Benford correlation).
//
// A sample in Prodigy is the feature vector obtained by running the catalog
// over every metric column of one node's telemetry table. Feature names are
// "<metric>__<feature>" so a selected feature can always be traced back to
// the metric and method that produced it.
//
// The hot path is destination-passing: ExtractSeriesInto / ExtractTableInto
// write into caller-owned slices at offsets precomputed by New, drawing all
// scratch space from a pooled Workspace, so steady-state extraction performs
// no allocations. ExtractTable remains as the cold-path convenience form
// that returns fresh slices.
package features

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"prodigy/internal/timeseries"
)

// Tier classifies extractors by computational cost so callers can trade
// catalog breadth for speed.
type Tier int

const (
	// TierMinimal marks O(n) descriptive statistics.
	TierMinimal Tier = iota
	// TierEfficient marks everything except quadratic-time methods.
	TierEfficient
	// TierFull marks expensive methods such as approximate entropy (O(n²)).
	TierFull
)

// SeriesFn computes one extractor's features from x into dst, whose length
// equals the extractor's declared Names. dst arrives zeroed, so extractors
// may return early on degenerate inputs (empty or constant series) and
// leave the zero defaults in place; the catalog sanitizes non-finite
// results to 0 after the call. ws supplies all scratch space; neither dst
// nor ws may be retained past the call.
type SeriesFn func(x, dst []float64, ws *Workspace)

// Extractor computes a fixed-length group of features from one series.
// Names declares at registration time exactly which features Fn fills, so
// the fixed-length contract is structural rather than probed: every input,
// including degenerate ones, yields len(Names) values.
type Extractor struct {
	Name  string
	Tier  Tier
	Names []string
	Fn    SeriesFn
}

// Catalog is an ordered collection of extractors. The per-series name table
// and per-extractor offsets are precomputed by New, so a Catalog is
// immutable after construction and safe for concurrent use.
type Catalog struct {
	Extractors []Extractor
	// MaxTier records which tier cutoff built this catalog, so deployment
	// artifacts can persist and reconstruct it.
	MaxTier Tier
	names   []string // concatenated Extractor.Names, fixed at New
	offsets []int    // start of each extractor's block in the series vector
	all     []int    // every extractor index, the list ExtractSeriesInto runs
}

// registry holds every known extractor in canonical order.
var registry []Extractor

func register(name string, tier Tier, names []string, fn SeriesFn) {
	registry = append(registry, Extractor{Name: name, Tier: tier, Names: names, Fn: fn})
}

// New returns a catalog containing all registered extractors at or below
// the given tier.
func New(maxTier Tier) *Catalog {
	c := &Catalog{MaxTier: maxTier}
	for _, e := range registry {
		if e.Tier <= maxTier {
			c.all = append(c.all, len(c.Extractors))
			c.Extractors = append(c.Extractors, e)
			c.offsets = append(c.offsets, len(c.names))
			c.names = append(c.names, e.Names...)
		}
	}
	return c
}

// Default returns the efficient catalog used by the experiments: every
// method except the quadratic-time ones.
func Default() *Catalog { return New(TierEfficient) }

// Full returns the complete catalog including expensive extractors.
func Full() *Catalog { return New(TierFull) }

// Minimal returns only the O(n) descriptive statistics.
func Minimal() *Catalog { return New(TierMinimal) }

// ExtractSeriesInto runs the catalog over one series, writing each
// extractor's values into dst at its precomputed offset. dst must have
// length NumFeaturesPerSeries. Non-finite values are replaced by 0. This is
// the allocation-free core: all scratch space comes from ws.
func (c *Catalog) ExtractSeriesInto(dst, x []float64, ws *Workspace) {
	c.ExtractSubsetInto(dst, x, c.all, ws)
}

// ExtractSubsetInto runs only the listed extractors (indices into
// Extractors) over one series, writing each one's values into dst at its
// catalog offset; the blocks of unlisted extractors are left as they were.
// Every extractor computes its block from x and ws alone, so a listed
// block holds exactly what ExtractSeriesInto would write there.
func (c *Catalog) ExtractSubsetInto(dst, x []float64, extractors []int, ws *Workspace) {
	if len(dst) != len(c.names) {
		panic(fmt.Sprintf("features: ExtractSubsetInto dst length %d, want %d", len(dst), len(c.names)))
	}
	ws.begin()
	for _, i := range extractors {
		e := &c.Extractors[i]
		sub := dst[c.offsets[i] : c.offsets[i]+len(e.Names)]
		clear(sub)
		e.Fn(x, sub, ws)
		for j, v := range sub {
			if !isFinite(v) {
				sub[j] = 0
			}
		}
	}
}

// SeriesFeatureNames returns the per-series feature names the catalog
// produces, in order. The slice is precomputed by New and shared; callers
// must not modify it.
func (c *Catalog) SeriesFeatureNames() []string { return c.names }

// NumFeaturesPerSeries returns how many features the catalog emits per
// metric column.
func (c *Catalog) NumFeaturesPerSeries() int { return len(c.names) }

// ExtractTableInto runs the catalog over every metric column of t, writing
// the flat feature vector (ordered by t.Order then catalog order) into dst,
// whose length must be t.NumMetrics()·NumFeaturesPerSeries(). Metrics are
// range-partitioned across at most GOMAXPROCS workers, each writing a
// disjoint region of dst with its own pooled workspace, so the result is
// bit-identical for any worker count.
func (c *Catalog) ExtractTableInto(dst []float64, t *timeseries.Table) {
	per := len(c.names)
	nm := t.NumMetrics()
	if len(dst) != nm*per {
		panic(fmt.Sprintf("features: ExtractTableInto dst length %d, want %d", len(dst), nm*per))
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > nm {
		workers = nm
	}
	if workers <= 1 {
		ws := GetWorkspace()
		defer PutWorkspace(ws)
		for mi := 0; mi < nm; mi++ {
			c.ExtractSeriesInto(dst[mi*per:(mi+1)*per], t.Columns[t.Order[mi]], ws)
		}
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*nm/workers, (w+1)*nm/workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			ws := GetWorkspace()
			defer PutWorkspace(ws)
			for mi := lo; mi < hi; mi++ {
				c.ExtractSeriesInto(dst[mi*per:(mi+1)*per], t.Columns[t.Order[mi]], ws)
			}
		}(lo, hi)
	}
	wg.Wait()
}

// ExtractTable runs the catalog over every metric column of t and returns
// the namespaced feature names ("metric__feature") and the flat feature
// vector, ordered by t.Order then catalog order. Prefer ExtractTableInto
// plus TableFeatureNames on hot paths: names rarely change between calls,
// and this wrapper rebuilds them every time.
func (c *Catalog) ExtractTable(t *timeseries.Table) ([]string, []float64) {
	values := make([]float64, t.NumMetrics()*len(c.names))
	c.ExtractTableInto(values, t)
	return c.TableFeatureNames(t.Order), values
}

// TableFeatureNames returns the namespaced names ExtractTable would produce
// for a table with the given metric order, without extracting anything.
func (c *Catalog) TableFeatureNames(metricOrder []string) []string {
	per := c.SeriesFeatureNames()
	out := make([]string, 0, len(metricOrder)*len(per))
	for _, m := range metricOrder {
		for _, f := range per {
			out = append(out, m+"__"+f)
		}
	}
	return out
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// fmtParam renders a parameterized feature name like "autocorrelation__lag_3".
func fmtParam(base, param string, v interface{}) string {
	return fmt.Sprintf("%s__%s_%v", base, param, v)
}

// lagNames renders the name list of an integer-parameterized extractor,
// e.g. lagNames("c3", "lag", 1, 3) → c3__lag_1 … c3__lag_3.
func lagNames(base, param string, lo, hi int) []string {
	out := make([]string, 0, hi-lo+1)
	for v := lo; v <= hi; v++ {
		out = append(out, fmtParam(base, param, v))
	}
	return out
}

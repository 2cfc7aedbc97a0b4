package obs

import "sort"

// SamplePoint is one scraped value: a concrete series of a metric family,
// flattened the way the tsdb stores it. Histograms are decomposed into the
// same shape Prometheus exposes — one `<name>_bucket` sample per upper
// bound (cumulative, `le` label), plus `<name>_sum` and `<name>_count` —
// so windowed queries can rebuild a histogram from bucket deltas.
type SamplePoint struct {
	// Name is the series name: the family name for counters and gauges,
	// the family name suffixed _bucket/_sum/_count for histograms.
	Name string
	// Labels and Values are the label schema and this series' values, in
	// declaration order. Histogram bucket samples carry a trailing "le".
	Labels []string
	Values []string
	Value  float64
}

// Collect enumerates every series of the registry in a deterministic
// order (families sorted by name, series by label values) and hands each
// one to fn. This is the scrape surface the in-process tsdb samples on a
// fixed interval.
func (r *Registry) Collect(fn func(SamplePoint)) {
	r.mu.RLock()
	names := make([]string, 0, len(r.fams))
	for name := range r.fams {
		names = append(names, name)
	}
	fams := make(map[string]*family, len(r.fams))
	for name, f := range r.fams {
		fams[name] = f
	}
	r.mu.RUnlock()
	sort.Strings(names)

	for _, name := range names {
		f := fams[name]
		f.mu.RLock()
		entries := make([]*seriesEntry, 0, len(f.series))
		for _, e := range f.series {
			entries = append(entries, e)
		}
		f.mu.RUnlock()
		sort.Slice(entries, func(i, j int) bool {
			return seriesKey(entries[i].values) < seriesKey(entries[j].values)
		})
		for _, e := range entries {
			switch m := e.metric.(type) {
			case *Counter:
				fn(SamplePoint{Name: f.name, Labels: f.labels, Values: e.values, Value: m.Value()})
			case *Gauge:
				fn(SamplePoint{Name: f.name, Labels: f.labels, Values: e.values, Value: m.Value()})
			case *Histogram:
				cum, total, sum := m.snapshot()
				bucketLabels := append(append([]string(nil), f.labels...), "le")
				for i, upper := range m.upper {
					vals := append(append([]string(nil), e.values...), formatFloat(upper))
					fn(SamplePoint{Name: f.name + "_bucket", Labels: bucketLabels, Values: vals, Value: float64(cum[i])})
				}
				vals := append(append([]string(nil), e.values...), "+Inf")
				fn(SamplePoint{Name: f.name + "_bucket", Labels: bucketLabels, Values: vals, Value: float64(total)})
				fn(SamplePoint{Name: f.name + "_sum", Labels: f.labels, Values: e.values, Value: sum})
				fn(SamplePoint{Name: f.name + "_count", Labels: f.labels, Values: e.values, Value: float64(total)})
			}
		}
	}
}

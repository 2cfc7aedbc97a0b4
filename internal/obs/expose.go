package obs

import (
	"expvar"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// WritePrometheus renders the registry in Prometheus text exposition
// format v0.0.4: families sorted by name, series sorted by label values,
// histograms as cumulative `_bucket`/`_sum`/`_count` triples.
func (r *Registry) WritePrometheus(w io.Writer) {
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
		if len(entries) == 0 {
			continue
		}
		sort.Slice(entries, func(i, j int) bool {
			return seriesKey(entries[i].values) < seriesKey(entries[j].values)
		})
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
		for _, e := range entries {
			switch m := e.metric.(type) {
			case *Counter:
				fmt.Fprintf(w, "%s%s %s\n", f.name, labelString(f.labels, e.values, "", ""), formatFloat(m.Value()))
			case *Gauge:
				fmt.Fprintf(w, "%s%s %s\n", f.name, labelString(f.labels, e.values, "", ""), formatFloat(m.Value()))
			case *Histogram:
				cum, total, sum := m.snapshot()
				for i, upper := range m.upper {
					fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
						labelString(f.labels, e.values, "le", formatFloat(upper)), cum[i])
				}
				fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
					labelString(f.labels, e.values, "le", "+Inf"), total)
				fmt.Fprintf(w, "%s_sum%s %s\n", f.name, labelString(f.labels, e.values, "", ""), formatFloat(sum))
				fmt.Fprintf(w, "%s_count%s %d\n", f.name, labelString(f.labels, e.values, "", ""), total)
			}
		}
	}
}

// labelString renders `{k="v",...}` with an optional extra pair (used for
// the histogram `le` bound); empty when there are no labels at all.
func labelString(names, values []string, extraKey, extraVal string) string {
	if len(names) == 0 && extraKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if extraKey != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraKey)
		b.WriteString(`="`)
		b.WriteString(extraVal)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

func escapeHelp(s string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler serves the default registry as a Prometheus scrape target.
func Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		Default.WritePrometheus(w)
	})
}

// Snapshot returns a JSON-friendly view of the registry: counters and
// gauges as values, histograms as {count, sum, p50, p95, p99}. This backs
// the /debug/vars exposition.
func (r *Registry) Snapshot() map[string]interface{} {
	r.mu.RLock()
	fams := make(map[string]*family, len(r.fams))
	for name, f := range r.fams {
		fams[name] = f
	}
	r.mu.RUnlock()

	out := make(map[string]interface{}, len(fams))
	for name, f := range fams {
		f.mu.RLock()
		for _, e := range f.series {
			key := name
			if len(f.labels) > 0 {
				key += labelString(f.labels, e.values, "", "")
			}
			switch m := e.metric.(type) {
			case *Counter:
				out[key] = m.Value()
			case *Gauge:
				out[key] = m.Value()
			case *Histogram:
				out[key] = map[string]interface{}{
					"count": m.Count(),
					"sum":   m.Sum(),
					"p50":   m.Quantile(0.50),
					"p95":   m.Quantile(0.95),
					"p99":   m.Quantile(0.99),
				}
			}
		}
		f.mu.RUnlock()
	}
	return out
}

var expvarOnce sync.Once

// PublishExpvar publishes the default registry (and the slow-span ring)
// under /debug/vars. Idempotent: expvar.Publish panics on duplicate
// names, and tests construct many servers.
func PublishExpvar() {
	expvarOnce.Do(func() {
		expvar.Publish("prodigy_metrics", expvar.Func(func() interface{} { return Default.Snapshot() }))
		expvar.Publish("prodigy_slow_spans", expvar.Func(func() interface{} { return RecentSlowSpans() }))
	})
}

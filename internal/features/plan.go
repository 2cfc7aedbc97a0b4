package features

import (
	"fmt"
	"sort"

	"prodigy/internal/timeseries"
)

// Plan is an extraction plan: the (metric, extractor) cells of a table's
// full feature vector that a feature selection reads. A full-space index i
// belongs to metric i/per (per = NumFeaturesPerSeries) and to the
// extractor whose catalog block covers i%per, so running only the planned
// cells fills every selected index with the value full extraction would
// have produced there. A Plan is immutable and safe for concurrent use.
type Plan struct {
	// Metrics lists the metric positions (indices into Table.Order) the
	// selection reads, ascending.
	Metrics []int
	// Extractors[k] lists the catalog extractor indices run on
	// Metrics[k], ascending.
	Extractors [][]int
	// per and width pin the catalog layout and full vector width the plan
	// was compiled against.
	per, width int
}

// Plan compiles the extraction plan reading the given full-space feature
// indices of a numMetrics-column table.
func (c *Catalog) Plan(indices []int, numMetrics int) (*Plan, error) {
	per, ne := len(c.names), len(c.Extractors)
	width := numMetrics * per
	// needed is the dense (metric, extractor) cell grid.
	needed := make([]bool, numMetrics*ne)
	for _, i := range indices {
		if i < 0 || i >= width {
			return nil, fmt.Errorf("features: plan index %d outside the %d-wide feature space", i, width)
		}
		j := i % per
		e := sort.Search(ne, func(k int) bool { return c.offsets[k] > j }) - 1
		needed[(i/per)*ne+e] = true
	}
	p := &Plan{per: per, width: width}
	for m := 0; m < numMetrics; m++ {
		var ex []int
		for e, ok := range needed[m*ne : (m+1)*ne] {
			if ok {
				ex = append(ex, e)
			}
		}
		if ex != nil {
			p.Metrics = append(p.Metrics, m)
			p.Extractors = append(p.Extractors, ex)
		}
	}
	return p, nil
}

// ExtractPlanInto runs the planned cells over t, writing into dst — the
// table's full feature vector, laid out as ExtractTableInto lays it out.
// Cells outside the plan are neither written nor cleared, so dst may be a
// reused buffer as long as the caller reads only the planned indices.
// Extraction is serial and draws all scratch space from ws.
func (c *Catalog) ExtractPlanInto(dst []float64, t *timeseries.Table, p *Plan, ws *Workspace) {
	per := len(c.names)
	if p.per != per || len(dst) != p.width || t.NumMetrics()*per != p.width {
		panic(fmt.Sprintf("features: ExtractPlanInto plan (%d per series, width %d) does not fit catalog (%d per series), dst %d, table %d metrics",
			p.per, p.width, per, len(dst), t.NumMetrics()))
	}
	for k, mi := range p.Metrics {
		c.ExtractSubsetInto(dst[mi*per:(mi+1)*per], t.Columns[t.Order[mi]], p.Extractors[k], ws)
	}
}

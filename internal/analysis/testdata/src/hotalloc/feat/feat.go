// Package feat exercises hotalloc's named-function-type fan-out: the
// catalog dispatches extractors through values of the SeriesFn type, so
// no extractor ever appears in a direct call expression. Reachability
// must follow the dispatch to every function with the SeriesFn signature
// and flag the ones that call allocating mat symbols.
package feat

import "fixture/hotalloc/mat"

// SeriesFn mirrors the production extractor signature.
type SeriesFn func(x, dst []float64, ws *mat.Workspace)

// Extractor pairs a name with its function value.
type Extractor struct {
	Name string
	Fn   SeriesFn
}

// Catalog matches the production root specs {Catalog, ExtractSeriesInto}
// and {Catalog, ExtractTableInto}.
type Catalog struct {
	Extractors []Extractor
}

// ExtractSeriesInto dispatches through the Fn field: every SeriesFn in
// the module joins the hot graph here.
func (c *Catalog) ExtractSeriesInto(dst, x []float64, ws *mat.Workspace) {
	for i := range c.Extractors {
		c.Extractors[i].Fn(x, dst, ws)
	}
}

// ExtractTableInto reaches the same dispatch through a local variable of
// the named type rather than a struct field.
func (c *Catalog) ExtractTableInto(dst, x []float64, ws *mat.Workspace) {
	for _, e := range c.Extractors {
		fn := e.Fn
		fn(x, dst, ws)
	}
}

// Plan lists the extractors a feature selection reads.
type Plan struct {
	Extractors []int
}

// ExtractPlanInto matches the production root spec {Catalog,
// ExtractPlanInto}. It indexes the registry by the plan's extractor list
// instead of ranging over it (the dispatch still fans out to every
// SeriesFn), then calls a helper that nothing else reaches: that call is
// flagged only because ExtractPlanInto is itself a root.
func (c *Catalog) ExtractPlanInto(dst, x []float64, p *Plan, ws *mat.Workspace) {
	for _, i := range p.Extractors {
		c.Extractors[i].Fn(x, dst, ws)
	}
	p.check(dst)
}

// check is reachable from ExtractPlanInto alone.
func (p *Plan) check(dst []float64) {
	_ = mat.Percentile(dst, 50) //want:hotalloc
}

// exClean stays on sorted workspace-style data: no findings.
func exClean(x, dst []float64, ws *mat.Workspace) {
	dst[0] = mat.PercentileSorted(x, 50)
}

// exSloppy calls the copy-and-sort form: a finding even though nothing
// calls exSloppy by name.
func exSloppy(x, dst []float64, ws *mat.Workspace) {
	dst[0] = mat.Percentile(x, 50) //want:hotalloc
}

// convert spells SeriesFn(...) as a type conversion: conversions share
// the call syntax but must not fan out as dispatch, or this cold path
// would drag nothing in — the conversion target is a value, not a call.
func convert() SeriesFn {
	return SeriesFn(exSloppy)
}

// coldHelper is never registered anywhere, but it matches the SeriesFn
// signature structurally, so dispatch fan-out pulls it in like any other
// candidate target — matching is by signature identity, not by use.
func coldHelper(x, dst []float64, ws *mat.Workspace) {
	dst[0] = mat.Percentile(x, 50) //want:hotalloc
}

var _ = coldHelper

package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotAlloc enforces the memory discipline of DESIGN.md §10: code
// reachable from the stateless-inference roots must use the
// destination-passing mat kernels (MatMulBiasInto, ApplyInto, ...) with
// workspace-owned buffers, never the allocating constructors and copies
// (mat.New, Matrix.Clone, Matrix.SelectRows, ...). Steady-state inference is
// zero-allocation — pinned by testing.AllocsPerRun regression tests —
// and this analyzer keeps new code from quietly re-introducing heap
// traffic the benchmarks would only catch later.
//
// The scan is plain reachability over the module call graph (the same
// index statelessinfer traces taint over): from each root, every
// statically resolvable callee is visited — interface calls fan out to
// all module implementations — and each call whose callee is a
// denylisted allocating symbol of the mat package is reported. A flagged
// call is a boundary: its body is not traversed, so a call suppressed
// with //lint:ignore hotalloc <reason> does not leak its internal
// allocations into the hot graph.
type HotAlloc struct {
	// Roots selects the hot-path entry points, same spec format as
	// StatelessInfer.Roots.
	Roots []RootSpec
	// MatPath is the import path of the matrix package whose allocating
	// API is denied on hot paths. Empty selects the production package.
	MatPath string
}

const defaultMatPath = "prodigy/internal/mat"

// DefaultHotPathRoots is the stateless-inference surface plus the Into
// entry points the serving layer calls per request, plus the per-shard
// training hot path of DESIGN.md §11: the sharded backward passes and the
// fixed-order gradient reduction run once per gradient shard per step and
// must stay on workspace buffers and preallocated accumulators. Fit-loop
// setup (NewSharder, optimizer moments) is deliberately absent: it
// allocates once per fit, not per step.
// The feature-extraction roots cover DESIGN.md §12: ExtractSeriesInto /
// ExtractTableInto run per metric per sample, and ExtractPlanInto per
// dashboard request (the selection-pruned job analysis); all three fan
// out through the SeriesFn registry to every extractor, all of which must
// draw scratch from the features.Workspace.
func DefaultHotPathRoots() []RootSpec {
	return append(DefaultStatelessRoots(),
		RootSpec{"Network", "BackwardParamsInto"},
		RootSpec{"Network", "BackwardInputInto"},
		RootSpec{"Sharder", "Reduce"},
		RootSpec{"Catalog", "ExtractSeriesInto"},
		RootSpec{"Catalog", "ExtractTableInto"},
		RootSpec{"Catalog", "ExtractPlanInto"},
		// Job-assembly Into path of DESIGN.md §15 (its Store.QueryJobInto
		// half is a stateless root): query + align draw every slice and
		// table shell from the caller's arena, so the per-request
		// AnalyzeJob path stays off the heap until feature extraction.
		RootSpec{"DataGenerator", "JobTablesInto"},
		// Offline dataset assembly rides the same arena discipline: the
		// builder's job-collection stage must stay on arena storage end to
		// end, so campaign builds don't regress to per-column allocation.
		RootSpec{"DatasetBuilder", "collectTasks"},
	)
}

// hotAllocFuncs are the allocating package-level functions of mat.
var hotAllocFuncs = map[string]bool{
	"New":         true,
	"NewFromData": true,
	"FromRows":    true,
	"Randn":       true,
	"VStack":      true,
	// Order statistics that copy-and-sort internally; hot paths sort a
	// workspace buffer once and use the *Sorted forms.
	"Percentile": true,
	"Median":     true,
}

// hotAllocMethods are the allocating methods of mat types (fresh-value
// returns: every one has an Into or in-place counterpart).
var hotAllocMethods = map[string]bool{
	"Clone":      true,
	"T":          true,
	"RowCopy":    true,
	"Col":        true,
	"SelectRows": true,
	"SelectCols": true,
}

// Name implements Analyzer.
func (a *HotAlloc) Name() string { return "hotalloc" }

// Doc implements Analyzer.
func (a *HotAlloc) Doc() string {
	return "code reachable from stateless-inference roots must use destination-passing mat kernels, not allocating ones (DESIGN.md §10)"
}

// Run implements Analyzer.
func (a *HotAlloc) Run(u *Unit, report Reporter) {
	matPath := a.MatPath
	if matPath == "" {
		matPath = defaultMatPath
	}
	g := newCallGraph(u)
	reported := make(map[token.Pos]bool)
	for _, root := range g.resolveRoots(a.Roots) {
		h := &haScan{g: g, report: report, matPath: matPath,
			root: root, reported: reported,
			visited: make(map[*types.Func]bool)}
		h.scan(root)
	}
}

// haScan is one root's reachability walk. reported is shared across
// roots so a call site reachable from several roots yields one finding.
type haScan struct {
	g        *callGraph
	report   Reporter
	matPath  string
	root     *types.Func
	reported map[token.Pos]bool
	visited  map[*types.Func]bool
}

func (h *haScan) scan(root *types.Func) {
	queue := []*types.Func{root}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if h.visited[cur] {
			continue
		}
		h.visited[cur] = true
		sum := h.g.funcs[cur]
		if sum == nil {
			continue
		}
		// ast.Inspect descends into FuncLit bodies too, so closures run
		// on the hot path are scanned with their enclosing function.
		ast.Inspect(sum.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, callee := range h.callees(sum.pkg, call) {
				if h.allocates(callee) {
					h.flag(call, callee)
					continue // boundary: don't traverse into the wrapper
				}
				if _, inModule := h.g.funcs[callee]; inModule && !h.visited[callee] {
					queue = append(queue, callee)
				}
			}
			return true
		})
	}
}

// callees statically resolves a call's target functions: direct calls
// and qualified package functions to one callee, interface method calls
// to every module implementation.
func (h *haScan) callees(pkg *Package, call *ast.CallExpr) []*types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[fun].(*types.Func); ok {
			return []*types.Func{fn}
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			fn := sel.Obj().(*types.Func)
			if iface, ok := sel.Recv().Underlying().(*types.Interface); ok {
				return h.g.implementations(iface, fn.Name())
			}
			return []*types.Func{fn}
		}
		if fn, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			return []*types.Func{fn}
		}
	}
	// Calls through a value of a module-defined named function type (a
	// struct field or variable, e.g. Extractor.Fn of type SeriesFn) fan
	// out to every module function with the identical signature — the
	// registry-dispatch analogue of interface fan-out. Type conversions
	// spell the same syntax, so only value expressions qualify.
	if tv, ok := pkg.Info.Types[ast.Unparen(call.Fun)]; ok && !tv.IsType() {
		if named, ok := tv.Type.(*types.Named); ok {
			if _, isSig := named.Underlying().(*types.Signature); isSig {
				return h.g.funcTypeImpls(named)
			}
		}
	}
	return nil
}

// allocates reports whether fn is a denylisted allocating symbol of the
// mat package. Matching is by type-checked object — package path plus
// receiver presence — so e.g. nn.Layer.Apply never collides with
// mat.Matrix.Apply.
func (h *haScan) allocates(fn *types.Func) bool {
	if fn.Pkg() == nil || fn.Pkg().Path() != h.matPath {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	if sig.Recv() != nil {
		return hotAllocMethods[fn.Name()]
	}
	return hotAllocFuncs[fn.Name()]
}

func (h *haScan) flag(call *ast.CallExpr, fn *types.Func) {
	if h.reported[call.Pos()] {
		return
	}
	h.reported[call.Pos()] = true
	h.report(call.Pos(), "call to %s allocates on the inference hot path (reachable from stateless root %s); use the Into/workspace form (DESIGN.md §10)",
		qualifiedName(fn), qualifiedName(h.root))
}

// qualifiedName renders a function for diagnostics: pkg.F for package
// functions, (pkg.T).M for methods.
func qualifiedName(fn *types.Func) string {
	pkgName := ""
	if fn.Pkg() != nil {
		pkgName = fn.Pkg().Name() + "."
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return "(" + pkgName + named.Obj().Name() + ")." + fn.Name()
		}
	}
	return pkgName + fn.Name()
}

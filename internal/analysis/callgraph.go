package analysis

import (
	"go/ast"
	"go/types"
)

// This file holds the call-graph index shared by the reachability-based
// analyzers (statelessinfer, hotalloc, deadcode): a map from every module
// function object to its declaration, the module's named types for
// interface resolution, and root-spec resolution. Each analyzer layers its
// own traversal on top — statelessinfer a taint trace, hotalloc a plain
// reachability scan from its roots, deadcode liveness from every entry
// point.

// RootSpec names one analysis root: a concrete method or an interface
// method (matched by the defining type's name, module-wide).
type RootSpec struct {
	Type   string
	Method string
}

// funcSummary pairs a module function's declaration with the package it
// was type-checked in. The mut/ret/writesGlobal fields are the mutation
// and alias summary statelessinfer iterates to fixpoint; hotalloc uses
// only the declaration.
type funcSummary struct {
	decl *ast.FuncDecl
	pkg  *Package
	// mut: input slots the function may write through.
	// ret: input slots the function's results may alias.
	mut, ret uint64
	// writesGlobal: the function assigns a package-level variable.
	writesGlobal bool
}

type implKey struct {
	iface  *types.Interface
	method string
}

// callGraph indexes one loaded Unit for call-graph traversal.
type callGraph struct {
	unit       *Unit
	funcs      map[*types.Func]*funcSummary
	named      []*types.Named // all module named types, for interface resolution
	implMemo   map[implKey][]*types.Func
	fnImplMemo map[*types.Named][]*types.Func
}

// newCallGraph maps every module function object to its declaration and
// collects named types for interface-implementation resolution.
func newCallGraph(u *Unit) *callGraph {
	g := &callGraph{
		unit:       u,
		funcs:      make(map[*types.Func]*funcSummary),
		implMemo:   make(map[implKey][]*types.Func),
		fnImplMemo: make(map[*types.Named][]*types.Func),
	}
	for _, pkg := range u.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				g.funcs[obj] = &funcSummary{decl: fd, pkg: pkg}
			}
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if named, ok := tn.Type().(*types.Named); ok {
					g.named = append(g.named, named)
				}
			}
		}
	}
	return g
}

// resolveRoots maps RootSpecs to concrete module methods. An interface
// root pulls in every module implementation of that method; specs naming
// types absent from the unit resolve to nothing.
func (g *callGraph) resolveRoots(specs []RootSpec) []*types.Func {
	var out []*types.Func
	seen := make(map[*types.Func]bool)
	add := func(fn *types.Func) {
		if fn != nil && !seen[fn] {
			if _, ok := g.funcs[fn]; ok {
				seen[fn] = true
				out = append(out, fn)
			}
		}
	}
	for _, spec := range specs {
		for _, named := range g.named {
			if named.Obj().Name() != spec.Type {
				continue
			}
			if iface, ok := named.Underlying().(*types.Interface); ok {
				for _, impl := range g.implementations(iface, spec.Method) {
					add(impl)
				}
				continue
			}
			add(lookupMethod(named, spec.Method))
		}
	}
	return out
}

// lookupMethod finds method name on T or *T.
func lookupMethod(named *types.Named, name string) *types.Func {
	obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), false, named.Obj().Pkg(), name)
	fn, _ := obj.(*types.Func)
	return fn
}

// funcTypeImpls lists the module's top-level functions whose signature is
// identical to the named function type's underlying signature — the
// possible targets of a call through a value of that type. This is how
// registry dispatch (e.g. the feature catalog's SeriesFn extractors)
// joins the call graph: the registered functions never appear in a
// direct call expression, only as values invoked through the named type.
// Files are walked in load order so the result is deterministic.
func (g *callGraph) funcTypeImpls(named *types.Named) []*types.Func {
	if out, ok := g.fnImplMemo[named]; ok {
		return out
	}
	sig, ok := named.Underlying().(*types.Signature)
	if !ok {
		return nil
	}
	var out []*types.Func
	for _, pkg := range g.unit.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Recv != nil || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				if fsig, ok := fn.Type().(*types.Signature); ok && types.Identical(fsig, sig) {
					out = append(out, fn)
				}
			}
		}
	}
	g.fnImplMemo[named] = out
	return out
}

// implementations lists the module methods satisfying an interface method.
func (g *callGraph) implementations(iface *types.Interface, method string) []*types.Func {
	key := implKey{iface, method}
	if out, ok := g.implMemo[key]; ok {
		return out
	}
	var out []*types.Func
	for _, named := range g.named {
		if types.IsInterface(named) {
			continue
		}
		if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
			if fn := lookupMethod(named, method); fn != nil {
				if _, ok := g.funcs[fn]; ok {
					out = append(out, fn)
				}
			}
		}
	}
	g.implMemo[key] = out
	return out
}

package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// DeadCode reports every non-test function and method that no entry
// point of the module can run (ROADMAP aim 2: code that ships nowhere is
// surface that tests verify for nothing). It is a reachability scan over
// the call-graph index the other traversals share:
//
//   - roots are the main functions of package main (every cmd/, example
//     and benchmark binary), every init function, and every package-level
//     var declaration (its initializer and its type);
//   - an edge is any identifier use in a live body — a call, a method
//     value handed to HandleFunc, a function stored in a registry — so
//     reference counts as use, not only a call;
//   - a method is live when it is named directly, or when its receiver
//     type is live, the type (or a pointer to it) implements an
//     interface — the module's interfaces, the ones its code spells, and
//     every interface exported by a package it imports (fmt.Stringer,
//     sort.Interface, json.Marshaler are dispatched from inside the
//     standard library) — and the method is one of that interface's. A
//     method that only shares its name with an interface method is not
//     kept.
//
// A type is live when a live body names it or holds a value of it, or
// when it sits inside a live type (field, element, type argument).
// Test files are outside the unit, so a function only a _test.go calls is
// reported: delete it, or move it into the test that uses it. A seam a
// test or benchmark gate needs from another package is kept with
// //lint:ignore deadcode <the test or gate it serves>.
type DeadCode struct{}

// Name implements Analyzer.
func (a *DeadCode) Name() string { return "deadcode" }

// Doc implements Analyzer.
func (a *DeadCode) Doc() string {
	return "every function and method must be reachable from a main, init or package-level var initializer (ROADMAP aim 2)"
}

// Run implements Analyzer.
func (a *DeadCode) Run(u *Unit, report Reporter) {
	d := &dcScan{
		g:         newCallGraph(u),
		module:    make(map[*types.Package]bool, len(u.Pkgs)),
		ifaces:    dispatchInterfaces(u),
		live:      make(map[*types.Func]bool),
		liveTypes: make(map[*types.Named]bool),
	}
	for _, pkg := range u.Pkgs {
		d.module[pkg.Types] = true
	}
	for _, pkg := range u.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					if decl.Recv == nil && (decl.Name.Name == "init" ||
						decl.Name.Name == "main" && pkg.Types.Name() == "main") {
						if fn, ok := pkg.Info.Defs[decl.Name].(*types.Func); ok {
							d.markFunc(fn)
						}
					}
				case *ast.GenDecl:
					if decl.Tok == token.VAR {
						d.visit(pkg, decl)
					}
				}
			}
		}
	}
	for len(d.queue) > 0 {
		fn := d.queue[len(d.queue)-1]
		d.queue = d.queue[:len(d.queue)-1]
		sum := d.g.funcs[fn]
		d.visit(sum.pkg, sum.decl)
	}

	// Report in declaration order: the unit is sorted by import path and
	// files by name, so the output is schedule-independent.
	for _, pkg := range u.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "_" {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok || d.live[fn] {
					continue
				}
				report(fd.Name.Pos(), "%s is unreachable from every main, init and package-level var initializer; delete it, or move it into the test that uses it",
					qualifiedName(fn))
			}
		}
	}
}

// dcScan is one DeadCode run's liveness state.
type dcScan struct {
	g         *callGraph
	module    map[*types.Package]bool
	ifaces    []*types.Interface // interfaces values may be dispatched through
	live      map[*types.Func]bool
	liveTypes map[*types.Named]bool // by origin, module and imported alike
	queue     []*types.Func
}

// markFunc makes a module function live and queues its body. Generic
// instances map to the declared function through Origin.
func (d *dcScan) markFunc(fn *types.Func) {
	fn = fn.Origin()
	if d.live[fn] {
		return
	}
	if _, ok := d.g.funcs[fn]; !ok {
		return // imported, or an interface method: no body to walk
	}
	d.live[fn] = true
	d.queue = append(d.queue, fn)
}

// visit walks one live node: every function it names becomes live, and
// every type it names or computes a value of becomes live.
func (d *dcScan) visit(pkg *Package, node ast.Node) {
	ast.Inspect(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			switch obj := pkg.Info.Uses[id].(type) {
			case *types.Func:
				d.markFunc(obj)
			case *types.TypeName:
				d.markType(obj.Type())
			}
		}
		if e, ok := n.(ast.Expr); ok {
			if tv, ok := pkg.Info.Types[e]; ok && tv.Type != nil {
				d.markType(tv.Type)
			}
		}
		return true
	})
}

// markType makes a type and everything a value of it carries live. A
// module named type entering the live set has its interface-named
// methods marked live: a value of it may reach them by dynamic dispatch.
func (d *dcScan) markType(t types.Type) {
	switch t := types.Unalias(t).(type) {
	case *types.Named:
		args := t.TypeArgs()
		for i := 0; i < args.Len(); i++ {
			d.markType(args.At(i))
		}
		origin := t.Origin()
		if d.liveTypes[origin] {
			return
		}
		d.liveTypes[origin] = true
		if !d.module[origin.Obj().Pkg()] {
			return
		}
		d.markType(origin.Underlying())
		d.markDispatched(origin)
	case *types.Pointer:
		d.markType(t.Elem())
	case *types.Slice:
		d.markType(t.Elem())
	case *types.Array:
		d.markType(t.Elem())
	case *types.Chan:
		d.markType(t.Elem())
	case *types.Map:
		d.markType(t.Key())
		d.markType(t.Elem())
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			d.markType(t.Field(i).Type())
		}
	case *types.Signature:
		d.markTuple(t.Params())
		d.markTuple(t.Results())
	}
}

func (d *dcScan) markTuple(tup *types.Tuple) {
	for i := 0; i < tup.Len(); i++ {
		d.markType(tup.At(i).Type())
	}
}

// markDispatched marks the methods of a live named type that an
// interface could dispatch to: for every interface *T implements (which
// covers the ones T implements), the methods of *T's method set, promoted
// ones included, that the interface declares. A generic type is checked
// as instantiated with its own type parameters, the form its method
// receivers have.
func (d *dcScan) markDispatched(named *types.Named) {
	if types.IsInterface(named) {
		return
	}
	var t types.Type = named
	if tps := named.TypeParams(); tps.Len() > 0 {
		args := make([]types.Type, tps.Len())
		for i := range args {
			args[i] = tps.At(i)
		}
		inst, err := types.Instantiate(nil, named, args, false)
		if err != nil {
			return
		}
		t = inst
	}
	ptr := types.NewPointer(t)
	ms := types.NewMethodSet(ptr)
	if ms.Len() == 0 {
		return
	}
	for _, iface := range d.ifaces {
		if !types.Implements(ptr, iface) {
			continue
		}
		for i := 0; i < iface.NumMethods(); i++ {
			m := iface.Method(i)
			if sel := ms.Lookup(m.Pkg(), m.Name()); sel != nil {
				if fn, ok := sel.Obj().(*types.Func); ok {
					d.markFunc(fn)
				}
			}
		}
	}
}

// dispatchInterfaces collects every interface with methods that a value
// of a module type could be dispatched through: error, the interfaces
// the module's code spells (named or literal, its own or imported), and
// the exported interfaces of every package the module imports,
// transitively. Generic interface declarations are left out; the
// instances the module spells are in.
func dispatchInterfaces(u *Unit) []*types.Interface {
	var out []*types.Interface
	seen := make(map[*types.Interface]bool)
	add := func(t types.Type) {
		if iface, ok := t.Underlying().(*types.Interface); ok && iface.NumMethods() > 0 && !seen[iface] {
			seen[iface] = true
			out = append(out, iface)
		}
	}
	add(types.Universe.Lookup("error").Type())
	walked := make(map[*types.Package]bool)
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if walked[p] {
			return
		}
		walked[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() > 0 {
					continue
				}
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, pkg := range u.Pkgs {
		walk(pkg.Types)
		for _, tv := range pkg.Info.Types {
			if tv.Type != nil {
				add(tv.Type)
			}
		}
	}
	return out
}

// Package main is the deadcode fixture: a tiny binary whose main, init and
// package-level vars are the roots. A want marker flags each declaration
// the analyzer must report; everything unmarked must stay live.
package main

import (
	"fmt"
	"net/http"
	"sort"
)

// Shape is dispatched dynamically: Circle.Area is live only through it.
type Shape interface{ Area() float64 }

type Circle struct{ R float64 }

func (c Circle) Area() float64 { return 3 * c.R * c.R }

// String is live through fmt.Stringer, an interface of an imported package.
func (c Circle) String() string { return fmt.Sprint("circle ", c.R) }

// Perimeter is named by no interface and called by no one.
func (c Circle) Perimeter() float64 { return 6 * c.R } //want:deadcode

// Model is live, but its Swap only shares a name with sort.Interface's:
// Model implements no interface that declares it, so no dispatch reaches
// it.
type Model struct{ gen int }

func (m *Model) Swap(next *Model) error { m.gen = next.gen; return nil } //want:deadcode

// byLen implements sort.Interface through its pointer (Swap has a
// pointer receiver): sort.Sort dispatches to all three methods.
type byLen []string

func (b byLen) Len() int           { return len(b) }
func (b byLen) Less(i, j int) bool { return len(b[i]) < len(b[j]) }
func (b *byLen) Swap(i, j int)     { (*b)[i], (*b)[j] = (*b)[j], (*b)[i] }

// onlyTests is called from main_test.go alone, which is not part of the
// program.
func onlyTests() int { return 42 } //want:deadcode

type server struct{ hits int }

// handle is live as a method value handed to HandleFunc.
func (s *server) handle(w http.ResponseWriter, r *http.Request) { s.hits++ }

// registry is filled from init: the registered functions are never
// called by name, only stored (the features.register pattern).
var registry = map[string]func(float64) float64{}

func register(name string, fn func(float64) float64) { registry[name] = fn }

func double(x float64) float64 { return 2 * x }

func init() { register("double", double) }

// table is a package-level var: its initializer is a root, so viaVar is
// live even though no function body names it.
var table = []func() int{viaVar}

func viaVar() int { return 1 }

// Map and Stack are generic: their instances map back to the declarations.
func Map[T any](xs []T, f func(T) T) []T {
	out := make([]T, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

type Stack[T any] struct{ items []T }

func (s *Stack[T]) Push(x T) { s.items = append(s.items, x) }

// String is live through fmt.Stringer, which *Stack[int] implements.
func (s *Stack[T]) String() string { return fmt.Sprint(s.items) }

// Pop is named by no interface and called by no one, generic or not.
func (s *Stack[T]) Pop() T { //want:deadcode
	x := s.items[len(s.items)-1]
	s.items = s.items[:len(s.items)-1]
	return x
}

// kept is unreachable but waived, and the waiver is itself audited.
//
//lint:ignore deadcode fixture: a suppressed finding must not surface
func kept() {}

func main() {
	var s Shape = Circle{R: 1}
	fmt.Println(s.Area(), s)
	mux := http.NewServeMux()
	srv := &server{}
	mux.HandleFunc("/", srv.handle)
	st := &Stack[int]{}
	st.Push(1)
	fmt.Println(Map([]float64{1, 2}, registry["double"]), len(table), st)
	m := &Model{gen: 1}
	words := byLen{"ccc", "a", "bb"}
	sort.Sort(&words)
	fmt.Println(m.gen, words)
}

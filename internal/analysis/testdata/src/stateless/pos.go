// Package stateless is the statelessinfer fixture: type names match the
// default roots (Network.InferInto, Layer.ApplyInto, Store.Query*), so the
// analyzer treats these methods as stateless entry points.
package stateless

// Matrix mimics mat.Matrix: a struct whose Data slice can be aliased.
type Matrix struct{ Data []float64 }

// New returns a fresh matrix — its result carries no caller provenance.
func New(n int) *Matrix { return &Matrix{Data: make([]float64, n)} }

// Row returns a view aliasing the receiver's backing array; the analyzer
// learns this from the return statement and propagates taint through it.
func (m *Matrix) Row(i int) []float64 { return m.Data[i : i+1] }

var inferCalls int

// Network matches the Network.InferInto root, which data-parallel
// training (DESIGN.md §11) also calls concurrently from every shard worker
// while the network trains.
type Network struct {
	cache  *Matrix
	copies int
}

// InferInto violates the contract three ways: a receiver-field write, a
// mutation one call deep, and a package-level counter bump.
func (n *Network) InferInto(x, dst *Matrix) *Matrix {
	n.cache = x  //want:statelessinfer
	n.noteCopy() //want:statelessinfer
	inferCalls++ //want:statelessinfer
	for i, v := range x.Data {
		dst.Data[i] = v * 2
	}
	return dst
}

// noteCopy mutates the receiver; reachable from InferInto, so flagged even
// though the write is a call away.
func (n *Network) noteCopy() {
	n.copies++ //want:statelessinfer
}

// scale builds its result fresh: writing out is not a violation.
func scale(x *Matrix, f float64) *Matrix {
	out := New(len(x.Data))
	for i, v := range x.Data {
		out.Data[i] = v * f
	}
	return out
}

// Layer matches the interface root Layer.ApplyInto: every implementation
// becomes a stateless entry point.
type Layer interface {
	ApplyInto(x *Matrix) *Matrix
}

// Dense implements Layer and caches its input — the PR-1 bug class.
type Dense struct {
	W     *Matrix
	calls int
}

// ApplyInto is flagged because Dense is found as a Layer implementation.
func (d *Dense) ApplyInto(x *Matrix) *Matrix {
	d.calls++ //want:statelessinfer
	return scale(x, 2)
}

// Store matches the Store.QuerySampler root.
type Store struct{ buf *Matrix }

// QuerySampler writes through a slice that aliases receiver data: the
// Row result carries the receiver's provenance.
func (s *Store) QuerySampler(i int) []float64 {
	row := s.buf.Row(i)
	row[0] = 0 //want:statelessinfer
	return row
}

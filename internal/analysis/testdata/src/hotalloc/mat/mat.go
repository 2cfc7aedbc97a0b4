// Package mat is a miniature stand-in for prodigy/internal/mat: just
// enough API surface to exercise hotalloc's allocating/Into distinction
// and the workspace escape hatch.
package mat

// Matrix mirrors the production layout.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// Workspace is the sanctioned buffer source on hot paths.
type Workspace struct{ inUse []*Matrix }

// GetWorkspace and Release stand in for the pooled pair.
func GetWorkspace() *Workspace { return &Workspace{} }

// Release returns a workspace to the (pretend) pool.
func Release(w *Workspace) {}

// Get hands out a buffer; allocation inside the workspace is sanctioned.
func (w *Workspace) Get(r, c int) *Matrix {
	m := &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
	w.inUse = append(w.inUse, m)
	return m
}

// Reset reclaims every outstanding buffer.
func (w *Workspace) Reset() { w.inUse = w.inUse[:0] }

// New is the allocating constructor the denylist starts with.
func New(r, c int) *Matrix {
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// MatMulInto is a destination-passing kernel.
func MatMulInto(dst, a, b *Matrix) *Matrix { return dst }

// Clone is an allocating method.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// SelectCols is an allocating method: a fresh column subset.
func (m *Matrix) SelectCols(idx []int) *Matrix { return New(m.Rows, len(idx)) }

// ApplyInto is a destination-passing method.
func (m *Matrix) ApplyInto(dst *Matrix, f func(float64) float64) *Matrix {
	for i, v := range m.Data {
		dst.Data[i] = f(v)
	}
	return dst
}

// ReduceTreeInto sums shard matrices into dst in fixed pairwise order —
// destination-passing, so sanctioned on hot paths.
func ReduceTreeInto(dst *Matrix, shards []*Matrix) *Matrix { return dst }

// Percentile copies and sorts internally: denylisted on hot paths.
func Percentile(v []float64, p float64) float64 {
	s := make([]float64, len(v))
	copy(s, v)
	return PercentileSorted(s, p)
}

// PercentileSorted reads pre-sorted data in place: sanctioned.
func PercentileSorted(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	return s[0]
}

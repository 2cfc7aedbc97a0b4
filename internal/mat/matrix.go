// Package mat provides dense matrix and vector primitives used by the
// machine-learning components of Prodigy. It is deliberately small: row-major
// float64 storage, the handful of BLAS-like kernels a feed-forward network
// needs, and parallel implementations of the expensive ones.
//
// Arithmetic kernels are destination-passing (kernels.go): they write into
// a matrix the caller owns, usually drawn from a Workspace. The remaining
// allocating helpers are constructors and cold-path copies (Clone,
// SelectRows). Nothing retains the caller's slices except the
// documented zero-copy constructors.
package mat

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense, row-major matrix of float64 values.
//
// The zero value is an empty (0x0) matrix. Use New, NewFromData or Randn to
// construct useful instances.
type Matrix struct {
	Rows, Cols int
	// Data holds the elements in row-major order: element (i, j) lives at
	// Data[i*Cols+j]. len(Data) == Rows*Cols.
	Data []float64
}

// New returns a zero-filled matrix of the given shape.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// NewFromData wraps data in a matrix header without copying. The caller must
// not modify data afterwards unless it owns the matrix. len(data) must equal
// rows*cols.
func NewFromData(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("mat: data length %d does not match %dx%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// FromRows builds a matrix by copying a slice of equal-length rows.
//
//lint:ignore deadcode literal-matrix fixture of the mat, nn, scale, featsel, lof and kmeans tests and examples
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	cols := len(rows[0])
	m := New(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			panic(fmt.Sprintf("mat: ragged rows: row 0 has %d cols, row %d has %d", cols, i, len(r)))
		}
		copy(m.Data[i*cols:(i+1)*cols], r)
	}
	return m
}

// Randn returns a matrix with entries drawn from N(0, std²) using rng.
//
//lint:ignore deadcode random-matrix fixture of the mat, nn, vae, scale, baselines and root benchmark tests
func Randn(rows, cols int, std float64, rng *rand.Rand) *Matrix {
	return RandnInto(New(rows, cols), std, rng)
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns v to the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// RowCopy returns a copy of row i.
func (m *Matrix) RowCopy(i int) []float64 {
	out := make([]float64, m.Cols)
	copy(out, m.Row(i))
	return out
}

// ColInto copies column j into dst, which must have length m.Rows. It is
// the allocation-free form of Col for callers that reuse one buffer across
// columns.
func (m *Matrix) ColInto(dst []float64, j int) []float64 {
	if len(dst) != m.Rows {
		panic("mat: ColInto length mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		dst[i] = m.Data[i*m.Cols+j]
	}
	return dst
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// SameShape reports whether m and n have identical dimensions.
func (m *Matrix) SameShape(n *Matrix) bool { return m.Rows == n.Rows && m.Cols == n.Cols }

// String implements fmt.Stringer with a compact shape-prefixed rendering.
func (m *Matrix) String() string {
	const maxShown = 6
	s := fmt.Sprintf("Matrix(%dx%d)[", m.Rows, m.Cols)
	n := len(m.Data)
	shown := n
	if shown > maxShown {
		shown = maxShown
	}
	for i := 0; i < shown; i++ {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.4g", m.Data[i])
	}
	if n > shown {
		s += " ..."
	}
	return s + "]"
}

// parallelThreshold is the number of scalar multiply-adds below which the
// matmul kernels stay single-threaded; goroutine fan-out costs more than it
// saves on small products.
const parallelThreshold = 64 * 64 * 64

// AddInPlace adds b into a.
func AddInPlace(a, b *Matrix) {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("mat: shape mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	for i, v := range b.Data {
		a.Data[i] += v
	}
}

// Scale multiplies every element of m by s, in place, and returns m.
func (m *Matrix) Scale(s float64) *Matrix {
	for i := range m.Data {
		m.Data[i] *= s
	}
	return m
}

// SelectRows returns a new matrix containing the rows of m at the given
// indices, in order.
func (m *Matrix) SelectRows(idx []int) *Matrix {
	return m.SelectRowsInto(&Matrix{}, idx)
}

// SelectCols returns a new matrix containing the columns of m at the given
// indices, in order.
func (m *Matrix) SelectCols(idx []int) *Matrix {
	return m.SelectColsInto(&Matrix{}, idx)
}

// Equal reports whether a and b have the same shape and all elements are
// within tol of each other.
//
//lint:ignore deadcode tolerance comparison of the mat, nn, scale and pipeline tests
func Equal(a, b *Matrix, tol float64) bool {
	if !a.SameShape(b) {
		return false
	}
	for i, v := range a.Data {
		if math.Abs(v-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

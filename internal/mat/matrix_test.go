package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// matMul is the plain product through the production kernel: MatMulBiasInto
// with a zero bias.
func matMul(a, b *Matrix) *Matrix {
	return MatMulBiasInto(&Matrix{}, a, b, make([]float64, b.Cols))
}

// tMatMul is aᵀ×b through the production gradient kernel, accumulated
// into a zeroed destination.
func tMatMul(a, b *Matrix) *Matrix {
	return TMatMulAccInto(New(a.Cols, b.Cols), a, b)
}

// transpose is the reference transpose the product identities are checked
// against.
func transpose(m *Matrix) *Matrix {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j, v := range m.Row(i) {
			out.Data[j*m.Rows+i] = v
		}
	}
	return out
}

func TestNewShape(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("New(3,4) = %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("New must zero-fill")
		}
	}
}

func TestNewPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative dims")
		}
	}()
	New(-1, 2)
}

func TestNewFromDataValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for length mismatch")
		}
	}()
	NewFromData(2, 2, []float64{1, 2, 3})
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows != 3 || m.Cols != 2 {
		t.Fatalf("shape %dx%d", m.Rows, m.Cols)
	}
	if m.At(1, 0) != 3 || m.At(2, 1) != 6 {
		t.Fatalf("wrong values: %v", m.Data)
	}
}

func TestFromRowsEmpty(t *testing.T) {
	m := FromRows(nil)
	if m.Rows != 0 || m.Cols != 0 {
		t.Fatalf("empty FromRows = %dx%d", m.Rows, m.Cols)
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for ragged rows")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestAtSetRowCol(t *testing.T) {
	m := New(2, 3)
	m.Set(1, 2, 7.5)
	if m.At(1, 2) != 7.5 {
		t.Fatal("Set/At mismatch")
	}
	row := m.Row(1)
	if row[2] != 7.5 {
		t.Fatal("Row view mismatch")
	}
	row[0] = 3 // Row is a view: must write through.
	if m.At(1, 0) != 3 {
		t.Fatal("Row must be a view")
	}
	rc := m.RowCopy(1)
	rc[0] = 99
	if m.At(1, 0) == 99 {
		t.Fatal("RowCopy must copy")
	}
	col := m.ColInto(make([]float64, 2), 2)
	if col[0] != 0 || col[1] != 7.5 {
		t.Fatalf("ColInto = %v", col)
	}
}

func TestMatMulSmall(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	c := matMul(a, b)
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if !Equal(c, want, 1e-12) {
		t.Fatalf("MatMulInto = %v", c.Data)
	}
}

func TestMatMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMulBiasInto(&Matrix{}, New(2, 3), New(2, 3), make([]float64, 3))
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := Randn(7, 7, 1, rng)
	eye := New(7, 7)
	for i := 0; i < 7; i++ {
		eye.Set(i, i, 1)
	}
	if !Equal(matMul(a, eye), a, 1e-12) {
		t.Fatal("A·I != A")
	}
	if !Equal(matMul(eye, a), a, 1e-12) {
		t.Fatal("I·A != A")
	}
}

// TestMatMulParallelMatchesSerial checks that a product large enough to take
// the parallel path agrees with a naive triple loop.
func TestMatMulParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := Randn(80, 70, 1, rng)
	b := Randn(70, 90, 1, rng)
	got := matMul(a, b)
	want := New(80, 90)
	for i := 0; i < 80; i++ {
		for j := 0; j < 90; j++ {
			s := 0.0
			for k := 0; k < 70; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			want.Set(i, j, s)
		}
	}
	if !Equal(got, want, 1e-9) {
		t.Fatal("parallel MatMulInto disagrees with naive product")
	}
}

func TestMatMulTAndTMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := Randn(5, 8, 1, rng)
	b := Randn(6, 8, 1, rng)
	if !Equal(MatMulTInto(&Matrix{}, a, b), matMul(a, transpose(b)), 1e-10) {
		t.Fatal("MatMulTInto != A·Bᵀ")
	}
	c := Randn(5, 4, 1, rng)
	if !Equal(tMatMul(a, c), matMul(transpose(a), c), 1e-10) {
		t.Fatal("TMatMulInto != Aᵀ·C")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{10, 20}, {30, 40}})
	sum := FromRows([][]float64{{11, 22}, {33, 44}})
	if !Equal(AddInto(&Matrix{}, a, b), sum, 0) {
		t.Fatal("AddInto wrong")
	}
	if !Equal(MulInto(&Matrix{}, a, b), FromRows([][]float64{{10, 40}, {90, 160}}), 0) {
		t.Fatal("MulInto wrong")
	}
	c := a.Clone()
	AddInPlace(c, b)
	if !Equal(c, sum, 0) {
		t.Fatal("AddInPlace wrong")
	}
}

func TestScaleApply(t *testing.T) {
	a := FromRows([][]float64{{1, -2}})
	a.Scale(2)
	if a.At(0, 0) != 2 || a.At(0, 1) != -4 {
		t.Fatalf("Scale = %v", a.Data)
	}
	b := a.ApplyInto(&Matrix{}, math.Abs)
	if b.At(0, 1) != 4 {
		t.Fatal("ApplyInto wrong")
	}
	if a.At(0, 1) != -4 {
		t.Fatal("ApplyInto into a fresh dst must not mutate receiver")
	}
}

func TestAddRowVectorAndSumRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	// The bias broadcast is fused into MatMulBiasInto: a product with the
	// identity adds the row vector exactly.
	out := MatMulBiasInto(&Matrix{}, m, FromRows([][]float64{{1, 0}, {0, 1}}), []float64{10, 20})
	if !Equal(out, FromRows([][]float64{{11, 22}, {13, 24}}), 0) {
		t.Fatalf("MatMulBiasInto(m, I, v) = %v", out.Data)
	}
	s := make([]float64, 2)
	m.SumRowsAccInto(s)
	if s[0] != 4 || s[1] != 6 {
		t.Fatalf("SumRowsAccInto = %v", s)
	}
}

func TestSelectRowsCols(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	r := m.SelectRows([]int{2, 0})
	if !Equal(r, FromRows([][]float64{{7, 8, 9}, {1, 2, 3}}), 0) {
		t.Fatalf("SelectRows = %v", r.Data)
	}
	c := m.SelectCols([]int{2, 2, 0})
	if !Equal(c, FromRows([][]float64{{3, 3, 1}, {6, 6, 4}, {9, 9, 7}}), 0) {
		t.Fatalf("SelectCols = %v", c.Data)
	}
}

// Property: (A·B)ᵀ == Bᵀ·Aᵀ for random small matrices.
func TestQuickTransposeProduct(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 1 + rng.Intn(6)
		k := 1 + rng.Intn(6)
		c := 1 + rng.Intn(6)
		a := Randn(r, k, 1, rng)
		b := Randn(k, c, 1, rng)
		return Equal(transpose(matMul(a, b)), matMul(transpose(b), transpose(a)), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: matrix addition commutes and (a+b)+(−b) == a.
func TestQuickAddSubRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 1 + rng.Intn(5)
		c := 1 + rng.Intn(5)
		a := Randn(r, c, 10, rng)
		b := Randn(r, c, 10, rng)
		sum := AddInto(&Matrix{}, a, b)
		neg := b.Clone()
		neg.Scale(-1)
		return Equal(sum, AddInto(&Matrix{}, b, a), 1e-12) && Equal(AddInto(&Matrix{}, sum, neg), a, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestStringTruncates(t *testing.T) {
	m := New(10, 10)
	s := m.String()
	if len(s) == 0 || s[0] != 'M' {
		t.Fatalf("String = %q", s)
	}
}

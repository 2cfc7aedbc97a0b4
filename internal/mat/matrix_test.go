package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

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
	col := m.Col(2)
	if col[0] != 0 || col[1] != 7.5 {
		t.Fatalf("Col = %v", col)
	}
}

func TestTranspose(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.T()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("T shape %dx%d", tr.Rows, tr.Cols)
	}
	want := FromRows([][]float64{{1, 4}, {2, 5}, {3, 6}})
	if !Equal(tr, want, 0) {
		t.Fatalf("T = %v", tr.Data)
	}
}

func TestMatMulSmall(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	c := MatMulInto(&Matrix{}, a, b)
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
	MatMulInto(&Matrix{}, New(2, 3), New(2, 3))
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := Randn(7, 7, 1, rng)
	eye := New(7, 7)
	for i := 0; i < 7; i++ {
		eye.Set(i, i, 1)
	}
	if !Equal(MatMulInto(&Matrix{}, a, eye), a, 1e-12) {
		t.Fatal("A·I != A")
	}
	if !Equal(MatMulInto(&Matrix{}, eye, a), a, 1e-12) {
		t.Fatal("I·A != A")
	}
}

// TestMatMulParallelMatchesSerial checks that a product large enough to take
// the parallel path agrees with a naive triple loop.
func TestMatMulParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := Randn(80, 70, 1, rng)
	b := Randn(70, 90, 1, rng)
	got := MatMulInto(&Matrix{}, a, b)
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
	if !Equal(MatMulTInto(&Matrix{}, a, b), MatMulInto(&Matrix{}, a, b.T()), 1e-10) {
		t.Fatal("MatMulTInto != A·Bᵀ")
	}
	c := Randn(5, 4, 1, rng)
	if !Equal(TMatMulInto(&Matrix{}, a, c), MatMulInto(&Matrix{}, a.T(), c), 1e-10) {
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
	if !Equal(SubInto(&Matrix{}, b, a), FromRows([][]float64{{9, 18}, {27, 36}}), 0) {
		t.Fatal("SubInto wrong")
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
	a.ApplyInPlace(math.Abs)
	if a.At(0, 1) != 4 {
		t.Fatal("ApplyInPlace wrong")
	}
}

func TestAddRowVectorAndSumRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	out := m.AddRowVectorInto(&Matrix{}, []float64{10, 20})
	if !Equal(out, FromRows([][]float64{{11, 22}, {13, 24}}), 0) {
		t.Fatalf("AddRowVectorInto = %v", out.Data)
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

func TestVStack(t *testing.T) {
	a := FromRows([][]float64{{1, 2}})
	b := FromRows([][]float64{{3, 4}, {5, 6}})
	s := VStack(a, b)
	if !Equal(s, FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}}), 0) {
		t.Fatalf("VStack = %v", s.Data)
	}
	if VStack().Rows != 0 {
		t.Fatal("empty VStack should be 0x0")
	}
}

func TestSumMaxAbs(t *testing.T) {
	m := FromRows([][]float64{{1, -5}, {2, 3}})
	if m.Sum() != 1 {
		t.Fatalf("Sum = %v", m.Sum())
	}
	if m.MaxAbs() != 5 {
		t.Fatalf("MaxAbs = %v", m.MaxAbs())
	}
	if New(0, 0).MaxAbs() != 0 {
		t.Fatal("empty MaxAbs should be 0")
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
		return Equal(MatMulInto(&Matrix{}, a, b).T(), MatMulInto(&Matrix{}, b.T(), a.T()), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: matrix addition commutes and (a+b)−b == a.
func TestQuickAddSubRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 1 + rng.Intn(5)
		c := 1 + rng.Intn(5)
		a := Randn(r, c, 10, rng)
		b := Randn(r, c, 10, rng)
		sum := AddInto(&Matrix{}, a, b)
		return Equal(sum, AddInto(&Matrix{}, b, a), 1e-12) && Equal(SubInto(&Matrix{}, sum, b), a, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: transposing twice is the identity.
func TestQuickDoubleTranspose(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := Randn(1+rng.Intn(8), 1+rng.Intn(8), 3, rng)
		return Equal(a.T().T(), a, 0)
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

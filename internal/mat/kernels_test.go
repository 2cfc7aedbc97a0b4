package mat

import (
	"math"
	"math/rand"
	"testing"
)

// naiveMatMul is the reference jik triple loop: no tiling, no zero-skip, no
// parallelism. The tiled kernels must agree with it to float tolerance.
func naiveMatMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			s := 0.0
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func randMat(rows, cols int, rng *rand.Rand) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// Shapes chosen to exercise tile boundaries: below one tile, exactly one
// tile, ragged multiples of kBlock/jBlock, and past the parallel threshold.
var kernelShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{3, 5, 2},
	{7, matmulKBlock, matmulJBlock},
	{16, matmulKBlock + 1, matmulJBlock + 3},
	{33, 100, 70},
	{80, 130, 96}, // 80*130*96 ≈ 1e6 > parallelThreshold: parallel path
}

func TestMatMulIntoAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, s := range kernelShapes {
		a, b := randMat(s.m, s.k, rng), randMat(s.k, s.n, rng)
		want := naiveMatMul(a, b)
		got := matMul(a, b)
		if !Equal(want, got, 1e-9) {
			t.Fatalf("MatMulBiasInto (zero bias) %dx%dx%d disagrees with naive", s.m, s.k, s.n)
		}
	}
}

func TestMatMulTIntoAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, s := range kernelShapes {
		a, b := randMat(s.m, s.k, rng), randMat(s.n, s.k, rng)
		want := naiveMatMul(a, transpose(b))
		got := MatMulTInto(&Matrix{}, a, b)
		if !Equal(want, got, 1e-9) {
			t.Fatalf("MatMulTInto %dx%dx%d disagrees with naive", s.m, s.k, s.n)
		}
	}
}

func TestTMatMulIntoAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, s := range kernelShapes {
		a, b := randMat(s.k, s.m, rng), randMat(s.k, s.n, rng)
		want := naiveMatMul(transpose(a), b)
		got := tMatMul(a, b)
		if !Equal(want, got, 1e-9) {
			t.Fatalf("TMatMulAccInto %dx%dx%d disagrees with naive", s.m, s.k, s.n)
		}
	}
}

// TestMatMulDeterministicAcrossPartitions pins the determinism contract:
// the parallel drivers must produce bit-identical results regardless of the
// worker partition, because per-element k order is partition-independent.
func TestMatMulDeterministicAcrossPartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a, b := randMat(96, 120, rng), randMat(120, 90, rng) // above threshold
	serial := New(a.Rows, b.Cols)
	matMulRange(a, b, serial, nil, 0, a.Rows)
	for _, workers := range []int{1, 2, 3, 5} {
		got := New(a.Rows, b.Cols)
		parallelRanges(a.Rows, workers, func(lo, hi int) {
			matMulRange(a, b, got, nil, lo, hi)
		})
		for i, v := range got.Data {
			if v != serial.Data[i] { //lint:ignore floateq determinism test requires exact equality
				t.Fatalf("workers=%d: element %d differs: %v vs %v", workers, i, v, serial.Data[i])
			}
		}
	}
}

func TestTMatMulDeterministicAcrossPartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a, b := randMat(200, 80, rng), randMat(200, 96, rng)
	serial := New(a.Cols, b.Cols)
	tMatMulAccRange(a, b, serial, 0, a.Cols)
	for _, workers := range []int{2, 3, 7} {
		got := New(a.Cols, b.Cols)
		parallelRanges(a.Cols, workers, func(lo, hi int) {
			tMatMulAccRange(a, b, got, lo, hi)
		})
		for i, v := range got.Data {
			if v != serial.Data[i] { //lint:ignore floateq determinism test requires exact equality
				t.Fatalf("workers=%d: element %d differs", workers, i)
			}
		}
	}
}

func TestMatMulTDeterministicAcrossPartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a, b := randMat(150, 300, rng), randMat(128, 300, rng)
	serial := New(a.Rows, b.Rows)
	matMulTRange(a, b, serial, 0, a.Rows)
	for _, workers := range []int{2, 4, 6} {
		got := New(a.Rows, b.Rows)
		parallelRanges(a.Rows, workers, func(lo, hi int) {
			matMulTRange(a, b, got, lo, hi)
		})
		for i, v := range got.Data {
			if v != serial.Data[i] { //lint:ignore floateq determinism test requires exact equality
				t.Fatalf("workers=%d: element %d differs", workers, i)
			}
		}
	}
}

func TestMatMulBiasIntoMatchesTwoStep(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a, b := randMat(9, 40, rng), randMat(40, 17, rng)
	bias := make([]float64, 17)
	for i := range bias {
		bias[i] = rng.NormFloat64()
	}
	want := matMul(a, b)
	for i := 0; i < want.Rows; i++ {
		for j, v := range bias {
			want.Data[i*want.Cols+j] += v
		}
	}
	got := MatMulBiasInto(&Matrix{}, a, b, bias)
	if !Equal(want, got, 1e-12) {
		t.Fatal("MatMulBiasInto disagrees with the product plus a separate bias pass")
	}
}

func TestTMatMulAccIntoAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a, b := randMat(12, 5, rng), randMat(12, 7, rng)
	dst := Randn(5, 7, 1, rng)
	base := dst.Clone()
	TMatMulAccInto(dst, a, b)
	want := AddInto(&Matrix{}, base, tMatMul(a, b))
	if !Equal(want, dst, 1e-12) {
		t.Fatal("TMatMulAccInto did not accumulate aᵀ×b into dst")
	}
}

func TestIntoKernelsReuseCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a, b := randMat(8, 6, rng), randMat(6, 10, rng)
	dst := &Matrix{Data: make([]float64, 0, 128)}
	backing := &dst.Data[:1][0]
	MatMulBiasInto(dst, a, b, make([]float64, b.Cols))
	if &dst.Data[0] != backing {
		t.Fatal("MatMulBiasInto reallocated despite sufficient capacity")
	}
	if dst.Rows != 8 || dst.Cols != 10 {
		t.Fatalf("dst reshaped to %dx%d", dst.Rows, dst.Cols)
	}
	// Shrinking reuse: a smaller product into the same dst keeps the array.
	AddInto(dst, a, a)
	if &dst.Data[0] != backing {
		t.Fatal("AddInto reallocated despite sufficient capacity")
	}
}

func TestMatMulIntoAliasPanics(t *testing.T) {
	a := Randn(4, 4, 1, rand.New(rand.NewSource(10)))
	defer func() {
		if recover() == nil {
			t.Fatal("expected alias panic")
		}
	}()
	MatMulBiasInto(a, a, a, make([]float64, 4))
}

func TestSelectRowsIntoAliasPanics(t *testing.T) {
	a := Randn(4, 4, 1, rand.New(rand.NewSource(11)))
	defer func() {
		if recover() == nil {
			t.Fatal("expected alias panic")
		}
	}()
	a.SelectRowsInto(a, []int{0, 1})
}

func TestElementwiseIntoAllowsAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a, b := randMat(5, 5, rng), randMat(5, 5, rng)
	want := AddInto(&Matrix{}, a, b)
	AddInto(a, a, b) // dst aliases a: explicitly allowed
	if !Equal(want, a, 0) {
		t.Fatal("aliased AddInto wrong")
	}
	want2 := a.ApplyInto(&Matrix{}, math.Abs)
	a.ApplyInto(a, math.Abs)
	if !Equal(want2, a, 0) {
		t.Fatal("aliased ApplyInto wrong")
	}
}

func TestSelectIntoAndAddRowVectorInto(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := randMat(6, 5, rng)
	idx := []int{4, 0, 2}
	dst := &Matrix{}
	if !Equal(m.SelectRows(idx), m.SelectRowsInto(dst, idx), 0) {
		t.Fatal("SelectRowsInto disagrees with SelectRows")
	}
	if !Equal(m.SelectCols(idx), m.SelectColsInto(&Matrix{}, idx), 0) {
		t.Fatal("SelectColsInto disagrees with SelectCols")
	}
	// The row-vector broadcast lives in MatMulBiasInto: against the
	// identity it adds v to every row exactly.
	v := []float64{1, 2, 3, 4, 5}
	eye := New(5, 5)
	for i := 0; i < 5; i++ {
		eye.Set(i, i, 1)
	}
	got := MatMulBiasInto(&Matrix{}, m, eye, v)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if got.At(i, j) != m.At(i, j)+v[j] {
				t.Fatalf("MatMulBiasInto(m, I, v)[%d,%d] = %v, want %v", i, j, got.At(i, j), m.At(i, j)+v[j])
			}
		}
	}
}

func TestSumRowsAccInto(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	m := randMat(7, 4, rng)
	acc := []float64{1, 1, 1, 1}
	m.SumRowsAccInto(acc)
	want := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		for j, v := range m.Row(i) {
			want[j] += v
		}
	}
	for j := range acc {
		if math.Abs(acc[j]-(want[j]+1)) > 1e-12 {
			t.Fatalf("col %d: got %v want %v", j, acc[j], want[j]+1)
		}
	}
}

func TestIntoShapeMismatchPanics(t *testing.T) {
	a, b := New(2, 3), New(4, 5)
	for name, fn := range map[string]func(){
		"MatMulBiasInto":      func() { MatMulBiasInto(&Matrix{}, a, b, make([]float64, 5)) },
		"MatMulTInto":         func() { MatMulTInto(&Matrix{}, a, b) },
		"TMatMulAccInto":      func() { TMatMulAccInto(New(3, 5), a, b) },
		"AddInto":             func() { AddInto(&Matrix{}, a, b) },
		"TMatMulAccInto dst":  func() { TMatMulAccInto(New(1, 1), New(2, 3), New(2, 5)) },
		"MatMulBiasInto bias": func() { MatMulBiasInto(&Matrix{}, New(2, 3), New(3, 4), []float64{1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected shape panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestWorkspaceReuse(t *testing.T) {
	ws := NewWorkspace()
	m1 := ws.Get(4, 8)
	if m1.Rows != 4 || m1.Cols != 8 || len(m1.Data) != 32 {
		t.Fatalf("Get(4,8) = %dx%d len %d", m1.Rows, m1.Cols, len(m1.Data))
	}
	backing := &m1.Data[0]
	ws.Put(m1)
	m2 := ws.Get(8, 4) // same element count: must reuse the buffer
	if &m2.Data[0] != backing {
		t.Fatal("workspace did not reuse the returned buffer")
	}
	ws.Put(m2)
	ws.Reset()
}

func TestWorkspacePutThenResetNoDoubleFree(t *testing.T) {
	ws := NewWorkspace()
	m := ws.Get(4, 4)
	ws.Put(m)
	ws.Put(m) // second Put of the same matrix must be a no-op
	ws.Reset()
	a, b := ws.Get(4, 4), ws.Get(4, 4)
	if &a.Data[0] == &b.Data[0] {
		t.Fatal("double-free: two live checkouts share a buffer")
	}
}

func TestWorkspaceResetInvalidatesAndReuses(t *testing.T) {
	ws := NewWorkspace()
	seen := map[*float64]bool{}
	for i := 0; i < 8; i++ {
		m := ws.Get(16, 16)
		seen[&m.Data[0]] = true
		ws.Reset()
	}
	if len(seen) != 1 {
		t.Fatalf("expected one recycled buffer across Reset cycles, saw %d", len(seen))
	}
}

func TestWorkspaceZeroSized(t *testing.T) {
	ws := NewWorkspace()
	m := ws.Get(0, 5)
	if m.Rows != 0 || m.Cols != 5 || len(m.Data) != 0 {
		t.Fatalf("Get(0,5) = %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	ws.Put(m)
	ws.Reset()
}

func TestWorkspacePoolRoundTrip(t *testing.T) {
	ws := GetWorkspace()
	m := ws.Get(3, 3)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6, 7, 8, 9})
	Release(ws)
	ws2 := GetWorkspace()
	defer Release(ws2)
	if got := ws2.Get(3, 3); len(got.Data) != 9 {
		t.Fatal("pooled workspace broken after Release")
	}
}

// TestWarmIntoKernelsAllocFree pins the tentpole property at the kernel
// level: once destinations are warm, the Into family performs zero heap
// allocations.
func TestWarmIntoKernelsAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	a, b := randMat(16, 32, rng), randMat(32, 24, rng)
	bt := transpose(b)
	bias := make([]float64, 24)
	dst := &Matrix{}
	MatMulBiasInto(dst, a, b, bias) // warm
	if n := testing.AllocsPerRun(50, func() {
		MatMulBiasInto(dst, a, b, bias)
		MatMulTInto(dst, a, bt)
		AddInto(dst, dst, dst)
		dst.ApplyInto(dst, math.Abs)
	}); n != 0 {
		t.Fatalf("warm Into kernels allocated %v times per run", n)
	}
}

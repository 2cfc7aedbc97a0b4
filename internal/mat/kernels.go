package mat

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
)

// This file holds the destination-passing kernels: every operation writes
// into a caller-supplied dst matrix instead of allocating a fresh one, so a
// hot loop that owns its buffers (usually via a Workspace) runs without
// touching the allocator.
//
// Conventions shared by all Into kernels:
//
//   - dst is reshaped to the result dimensions, reusing its backing array
//     when cap(dst.Data) suffices and growing it otherwise; pass a buffer
//     from Workspace.Get (or any previously-right-sized matrix) to stay
//     allocation-free.
//   - dst must not share backing storage with a matmul operand (checked
//     cheaply for whole-matrix aliasing); element-wise kernels explicitly
//     allow dst to alias an operand.
//   - Every kernel returns dst.
//
// Determinism: the tiled and parallel paths below never change the
// floating-point reduction order of an output element based on the worker
// count or tile offsets — per element, the k index accumulates in
// ascending order in fixed-size groups whose boundaries are anchored at
// k = 0, each element is written by exactly one goroutine, and
// partial-sum boundaries are fixed by the (compile-time) tile and unroll
// sizes alone. Results are therefore bit-identical run to run and across
// GOMAXPROCS settings, which the pipeline determinism regression test
// pins. ReduceTreeInto extends the same anchoring to cross-shard
// gradient sums: the pairwise tree shape depends only on the shard
// count, never on how many workers produced the shards.

// Cache tiling parameters for the matmul kernels. The inner loops walk the
// B operand in kBlock-row × jBlock-column panels: one panel is
// 64×256 float64 = 128 KiB, which sits in L2 while a block of output rows
// streams through it; the 256-element row segments the innermost loops
// touch stay within a few L1 lines. MatMulTInto uses the transposed analogues
// (dotBlock-long dot segments over rowBlock B-rows per panel, same panel
// footprint).
const (
	matmulKBlock = 64
	matmulJBlock = 256

	matmulTDotBlock = 256
	matmulTRowBlock = 64
)

// reshape resizes m to rows×cols, reusing the backing array when it has
// capacity and allocating a fresh one otherwise. Contents are unspecified
// after reshape; callers fully overwrite.
func (m *Matrix) reshape(rows, cols int) {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimensions %dx%d", rows, cols))
	}
	n := rows * cols
	if cap(m.Data) >= n {
		m.Data = m.Data[:n]
	} else {
		m.Data = make([]float64, n)
	}
	m.Rows, m.Cols = rows, cols
}

// sharesBacking reports whether a and b start on the same backing element.
// It is a cheap whole-matrix aliasing check: it catches reusing an operand
// as the destination (the common mistake) but not partial overlaps of
// hand-built sub-slices, which the kernel docs forbid.
func sharesBacking(a, b *Matrix) bool {
	return len(a.Data) > 0 && len(b.Data) > 0 && &a.Data[0] == &b.Data[0]
}

func checkNoAlias(op string, dst *Matrix, srcs ...*Matrix) {
	for _, s := range srcs {
		if sharesBacking(dst, s) {
			panic("mat: " + op + ": dst aliases an operand")
		}
	}
}

// workerCount picks the goroutine fan-out for a kernel that splits splitDim
// ways and performs work scalar multiply-adds in total. It is shape-aware:
// tall-skinny operands whose split dimension is narrow get fewer workers
// than GOMAXPROCS rather than slicing the narrow dimension into slivers,
// and small products stay single-threaded entirely.
func workerCount(splitDim, work int) int {
	if work < parallelThreshold || splitDim <= 1 {
		return 1
	}
	w := runtime.GOMAXPROCS(0)
	if w > splitDim {
		w = splitDim
	}
	// Keep at least parallelThreshold work per goroutine: fan-out below
	// that costs more in scheduling than it recovers.
	if max := work / parallelThreshold; w > max {
		w = max
	}
	if w < 1 {
		w = 1
	}
	return w
}

// parallelRanges runs fn over [0, n) split into worker contiguous ranges.
// With one worker it runs inline. Callers keep their serial fast path
// outside this function: constructing the fn closure heap-allocates, which
// the zero-allocation contract forbids on the (serial) hot path.
func parallelRanges(n, workers int, fn func(lo, hi int)) {
	if workers <= 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for start := 0; start < n; start += chunk {
		end := start + chunk
		if end > n {
			end = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(start, end)
	}
	wg.Wait()
}

// MatMulInto computes dst = a×b, reshaping dst to a.Rows×b.Cols. It panics
// if the inner dimensions disagree or dst aliases an operand. Large
// products fan out over row blocks.
func MatMulInto(dst, a, b *Matrix) *Matrix {
	return matMulBias(dst, a, b, nil)
}

// MatMulBiasInto computes dst = a×b with bias (length b.Cols) added to
// every output row — the fused affine kernel behind Dense layers, saving
// the separate broadcast pass and temporary of MatMulInto + AddRowVectorInto.
func MatMulBiasInto(dst, a, b *Matrix, bias []float64) *Matrix {
	if len(bias) != b.Cols {
		panic(fmt.Sprintf("mat: MatMulBiasInto bias length %d != cols %d", len(bias), b.Cols))
	}
	return matMulBias(dst, a, b, bias)
}

func matMulBias(dst, a, b *Matrix, bias []float64) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: MatMul shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	checkNoAlias("MatMulInto", dst, a, b)
	dst.reshape(a.Rows, b.Cols)
	workers := workerCount(a.Rows, a.Rows*a.Cols*b.Cols)
	if workers <= 1 {
		matMulRange(a, b, dst, bias, 0, a.Rows)
		return dst
	}
	parallelRanges(a.Rows, workers, func(lo, hi int) {
		matMulRange(a, b, dst, bias, lo, hi)
	})
	return dst
}

// matMulRange computes rows [lo, hi) of dst = a×b (+bias), walking b in
// kBlock×jBlock panels. Within a panel the loops keep the ikj streaming
// order with the k loop unrolled four wide: one pass over the output row
// serves four k's, quartering the dst load/store traffic that dominates
// a one-k-at-a-time axpy. Each output element accumulates k-ascending in
// fixed groups of four — the grouping is set by the block origin, never
// by the [lo, hi) partition, so results stay bitwise identical across
// worker counts (pinned by TestMatMulDeterministicAcrossPartitions).
func matMulRange(a, b, dst *Matrix, bias []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		orow := dst.Row(i)
		if bias == nil {
			for j := range orow {
				orow[j] = 0
			}
		} else {
			copy(orow, bias)
		}
	}
	for kb := 0; kb < a.Cols; kb += matmulKBlock {
		kend := kb + matmulKBlock
		if kend > a.Cols {
			kend = a.Cols
		}
		for jb := 0; jb < b.Cols; jb += matmulJBlock {
			jend := jb + matmulJBlock
			if jend > b.Cols {
				jend = b.Cols
			}
			n := jend - jb
			for i := lo; i < hi; i++ {
				arow := a.Row(i)[kb:kend]
				orow := dst.Row(i)[jb:jend][:n]
				k := 0
				for ; k+3 < len(arow); k += 4 {
					a0, a1, a2, a3 := arow[k], arow[k+1], arow[k+2], arow[k+3]
					//lint:ignore floateq sparsity fast path: exact zeros skip four b rows, any nonzero is correct either way
					if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
						continue
					}
					bb := (kb + k) * b.Cols
					b0 := b.Data[bb+jb : bb+jend][:n]
					bb += b.Cols
					b1 := b.Data[bb+jb : bb+jend][:n]
					bb += b.Cols
					b2 := b.Data[bb+jb : bb+jend][:n]
					bb += b.Cols
					b3 := b.Data[bb+jb : bb+jend][:n]
					for j := range orow {
						orow[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
					}
				}
				for ; k < len(arow); k++ {
					av := arow[k]
					//lint:ignore floateq sparsity fast path: exact zero skips a row, any nonzero is correct either way
					if av == 0 {
						continue
					}
					bb := (kb + k) * b.Cols
					brow := b.Data[bb+jb : bb+jend][:n]
					for j, bv := range brow {
						orow[j] += av * bv
					}
				}
			}
		}
	}
}

// MatMulTInto computes dst = a×bᵀ without materializing the transpose,
// reshaping dst to a.Rows×b.Rows. Large products fan out over row blocks
// of a; the worker count is shape-aware, so a tall-skinny a (many rows,
// short dot length) splits rows while a short-wide one stays serial.
func MatMulTInto(dst, a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MatMulT shape mismatch %dx%d · (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	checkNoAlias("MatMulTInto", dst, a, b)
	dst.reshape(a.Rows, b.Rows)
	workers := workerCount(a.Rows, a.Rows*a.Cols*b.Rows)
	if workers <= 1 {
		matMulTRange(a, b, dst, 0, a.Rows)
		return dst
	}
	parallelRanges(a.Rows, workers, func(lo, hi int) {
		matMulTRange(a, b, dst, lo, hi)
	})
	return dst
}

// matMulTRange computes rows [lo, hi) of dst = a×bᵀ, tiled so a
// rowBlock×dotBlock panel of b is reused across the block's output rows.
// Output rows are register-blocked four at a time: one pass over a b row
// feeds four dot products at once, quartering the b-panel traffic that
// bounds a one-row-at-a-time kernel, with the four independent
// accumulator chains hiding FP-add latency. Each output element still
// sums its k dimension in plain ascending order within fixed
// dotBlock-aligned segments — the same order the sub-4 remainder rows
// use — so results are a pure function of the operands, independent of
// the [lo, hi) partition and therefore of the worker count.
func matMulTRange(a, b, dst *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		orow := dst.Row(i)
		for j := range orow {
			orow[j] = 0
		}
	}
	for jb := 0; jb < b.Rows; jb += matmulTRowBlock {
		jend := jb + matmulTRowBlock
		if jend > b.Rows {
			jend = b.Rows
		}
		for kb := 0; kb < a.Cols; kb += matmulTDotBlock {
			kend := kb + matmulTDotBlock
			if kend > a.Cols {
				kend = a.Cols
			}
			n := kend - kb
			i := lo
			for ; i+3 < hi; i += 4 {
				a0 := a.Row(i)[kb:kend][:n]
				a1 := a.Row(i + 1)[kb:kend][:n]
				a2 := a.Row(i + 2)[kb:kend][:n]
				a3 := a.Row(i + 3)[kb:kend][:n]
				o0, o1, o2, o3 := dst.Row(i), dst.Row(i+1), dst.Row(i+2), dst.Row(i+3)
				for j := jb; j < jend; j++ {
					brow := b.Row(j)[kb:kend][:n]
					var s0, s1, s2, s3 float64
					for k, bv := range brow {
						s0 += a0[k] * bv
						s1 += a1[k] * bv
						s2 += a2[k] * bv
						s3 += a3[k] * bv
					}
					o0[j] += s0
					o1[j] += s1
					o2[j] += s2
					o3[j] += s3
				}
			}
			for ; i < hi; i++ {
				aseg := a.Row(i)[kb:kend]
				orow := dst.Row(i)
				for j := jb; j < jend; j++ {
					orow[j] += Dot(aseg, b.Row(j)[kb:kend])
				}
			}
		}
	}
}

// TMatMulInto computes dst = aᵀ×b without materializing the transpose,
// reshaping dst to a.Cols×b.Cols. Parallelism splits the output rows
// (a's columns): shape-aware, so a tall-skinny a — the gradient shape,
// many samples × few units — caps the fan-out at a.Cols instead of
// shredding the shared k dimension.
func TMatMulInto(dst, a, b *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("mat: TMatMul shape mismatch (%dx%d)ᵀ · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	checkNoAlias("TMatMulInto", dst, a, b)
	dst.reshape(a.Cols, b.Cols)
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	tMatMulAcc(dst, a, b)
	return dst
}

// TMatMulAccInto computes dst += aᵀ×b. dst must already have shape
// a.Cols×b.Cols — accumulation never reshapes. This is the gradient
// kernel: W.Grad += xᵀ·gradOut with no temporary.
func TMatMulAccInto(dst, a, b *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("mat: TMatMul shape mismatch (%dx%d)ᵀ · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("mat: TMatMulAccInto dst %dx%d for %dx%d result", dst.Rows, dst.Cols, a.Cols, b.Cols))
	}
	checkNoAlias("TMatMulAccInto", dst, a, b)
	tMatMulAcc(dst, a, b)
	return dst
}

func tMatMulAcc(dst, a, b *Matrix) {
	workers := workerCount(a.Cols, a.Rows*a.Cols*b.Cols)
	if workers <= 1 {
		tMatMulAccRange(a, b, dst, 0, a.Cols)
		return
	}
	parallelRanges(a.Cols, workers, func(lo, hi int) {
		tMatMulAccRange(a, b, dst, lo, hi)
	})
}

// tMatMulAccRange accumulates dst rows [lo, hi) of aᵀ×b. The j dimension
// is tiled so one b panel stays hot; within a tile each dst row streams
// once per group of four samples (k), not once per sample — the k loop is
// unrolled four wide, quartering the dst load/store traffic that
// dominates a one-sample-at-a-time axpy. Groups are anchored at k = 0
// regardless of the tile or worker partition, so per element the
// accumulation order is fixed and results stay bitwise identical across
// worker counts.
func tMatMulAccRange(a, b, dst *Matrix, lo, hi int) {
	for jb := 0; jb < b.Cols; jb += matmulJBlock {
		jend := jb + matmulJBlock
		if jend > b.Cols {
			jend = b.Cols
		}
		n := jend - jb
		for i := lo; i < hi; i++ {
			orow := dst.Row(i)[jb:jend][:n]
			k := 0
			for ; k+3 < a.Rows; k += 4 {
				ai := k*a.Cols + i
				a0 := a.Data[ai]
				a1 := a.Data[ai+a.Cols]
				a2 := a.Data[ai+2*a.Cols]
				a3 := a.Data[ai+3*a.Cols]
				//lint:ignore floateq sparsity fast path: exact zeros skip four samples, any nonzero is correct either way
				if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
					continue
				}
				bb := k * b.Cols
				b0 := b.Data[bb+jb : bb+jend][:n]
				bb += b.Cols
				b1 := b.Data[bb+jb : bb+jend][:n]
				bb += b.Cols
				b2 := b.Data[bb+jb : bb+jend][:n]
				bb += b.Cols
				b3 := b.Data[bb+jb : bb+jend][:n]
				for j := range orow {
					orow[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
				}
			}
			for ; k < a.Rows; k++ {
				av := a.Data[k*a.Cols+i]
				//lint:ignore floateq sparsity fast path: exact zero skips a sample, any nonzero is correct either way
				if av == 0 {
					continue
				}
				brow := b.Row(k)[jb:jend][:n]
				for j, bv := range brow {
					orow[j] += av * bv
				}
			}
		}
	}
}

func checkSameShapeInto(op string, a, b *Matrix) {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("mat: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// AddInto computes dst = a+b element-wise. dst may alias a or b.
func AddInto(dst, a, b *Matrix) *Matrix {
	checkSameShapeInto("AddInto", a, b)
	dst.reshape(a.Rows, a.Cols)
	bd := b.Data
	for i, v := range a.Data {
		dst.Data[i] = v + bd[i]
	}
	return dst
}

// SubInto computes dst = a−b element-wise. dst may alias a or b.
func SubInto(dst, a, b *Matrix) *Matrix {
	checkSameShapeInto("SubInto", a, b)
	dst.reshape(a.Rows, a.Cols)
	bd := b.Data
	for i, v := range a.Data {
		dst.Data[i] = v - bd[i]
	}
	return dst
}

// MulInto computes the element-wise (Hadamard) product dst = a∘b. dst may
// alias a or b.
func MulInto(dst, a, b *Matrix) *Matrix {
	checkSameShapeInto("MulInto", a, b)
	dst.reshape(a.Rows, a.Cols)
	bd := b.Data
	for i, v := range a.Data {
		dst.Data[i] = v * bd[i]
	}
	return dst
}

// ApplyInto writes f applied to every element of m into dst. dst may
// alias m.
func (m *Matrix) ApplyInto(dst *Matrix, f func(float64) float64) *Matrix {
	dst.reshape(m.Rows, m.Cols)
	for i, v := range m.Data {
		dst.Data[i] = f(v)
	}
	return dst
}

// AddRowVectorInto writes m with v (length Cols) added to every row into
// dst — the bias broadcast. dst may alias m.
func (m *Matrix) AddRowVectorInto(dst *Matrix, v []float64) *Matrix {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("mat: AddRowVector length %d != cols %d", len(v), m.Cols))
	}
	dst.reshape(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		orow := dst.Row(i)
		for j, x := range row {
			orow[j] = x + v[j]
		}
	}
	return dst
}

// SelectRowsInto gathers the rows of m at idx into dst, reshaping it to
// len(idx)×m.Cols. dst must not alias m. Reusing one dst across an
// epoch's minibatches (the last batch may be short) is the intended use.
func (m *Matrix) SelectRowsInto(dst *Matrix, idx []int) *Matrix {
	checkNoAlias("SelectRowsInto", dst, m)
	dst.reshape(len(idx), m.Cols)
	for i, r := range idx {
		copy(dst.Row(i), m.Row(r))
	}
	return dst
}

// SelectColsInto gathers the columns of m at idx into dst, reshaping it to
// m.Rows×len(idx). dst must not alias m.
func (m *Matrix) SelectColsInto(dst *Matrix, idx []int) *Matrix {
	checkNoAlias("SelectColsInto", dst, m)
	dst.reshape(m.Rows, len(idx))
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		orow := dst.Row(i)
		for k, c := range idx {
			orow[k] = row[c]
		}
	}
	return dst
}

// SumRowsAccInto adds the column-wise sums of m into dst (length Cols) —
// the bias-gradient accumulation, fused so no temporary vector is needed.
func (m *Matrix) SumRowsAccInto(dst []float64) {
	if len(dst) != m.Cols {
		panic(fmt.Sprintf("mat: SumRowsAccInto length %d != cols %d", len(dst), m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			dst[j] += v
		}
	}
}

// CopyInto writes src into dst, reshaping dst to match. The workspace
// form of Clone.
func CopyInto(dst, src *Matrix) *Matrix {
	if dst == src {
		return dst
	}
	dst.reshape(src.Rows, src.Cols)
	copy(dst.Data, src.Data)
	return dst
}

// RandnInto fills dst (keeping its shape) with draws from N(0, std²).
func RandnInto(dst *Matrix, std float64, rng *rand.Rand) *Matrix {
	for i := range dst.Data {
		dst.Data[i] = rng.NormFloat64() * std
	}
	return dst
}

// RowsView points dst at rows [lo, hi) of src without copying: the view
// shares src's backing array. Mutating the view mutates src, and the view
// is invalidated by anything that reshapes src. Intended for slicing a
// minibatch into gradient shards with caller-reused header structs, so
// the fan-out allocates nothing.
func RowsView(dst, src *Matrix, lo, hi int) *Matrix {
	if lo < 0 || hi < lo || hi > src.Rows {
		panic(fmt.Sprintf("mat: RowsView [%d, %d) of %d rows", lo, hi, src.Rows))
	}
	dst.Rows, dst.Cols = hi-lo, src.Cols
	dst.Data = src.Data[lo*src.Cols : hi*src.Cols]
	return dst
}

// ReduceTreeInto writes the element-wise sum of the shard matrices into
// dst using a fixed-order pairwise tree: stride-1 neighbours combine
// first, then stride 2, 4, … The association depends only on the shard
// count — never on how many goroutines produced the shards — so
// data-parallel gradient reductions are bitwise reproducible for any
// worker fan-out (DESIGN.md §11). The reduction accumulates destructively
// into shards[0], shards[2], … (shard buffers are per-step scratch) and
// finally copies the tree root into dst. All shards must share one shape;
// the kernel allocates nothing.
func ReduceTreeInto(dst *Matrix, shards []*Matrix) *Matrix {
	if len(shards) == 0 {
		panic("mat: ReduceTreeInto of no shards")
	}
	for _, s := range shards {
		checkSameShapeInto("ReduceTreeInto", shards[0], s)
	}
	for stride := 1; stride < len(shards); stride *= 2 {
		for i := 0; i+stride < len(shards); i += 2 * stride {
			AddInPlace(shards[i], shards[i+stride])
		}
	}
	return CopyInto(dst, shards[0])
}

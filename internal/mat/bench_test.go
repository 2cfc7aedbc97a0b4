package mat

import (
	"math/rand"
	"testing"
)

// The matmul benchmarks measure the destination-passing kernels with a
// reused output: the steady-state shape of the inference hot path.
func benchmarkMatMulInto(b *testing.B, n int) {
	rng := rand.New(rand.NewSource(1))
	x := Randn(n, n, 1, rng)
	y := Randn(n, n, 1, rng)
	dst := New(n, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(dst, x, y)
	}
}

func BenchmarkMatMulInto32(b *testing.B)  { benchmarkMatMulInto(b, 32) }
func BenchmarkMatMulInto128(b *testing.B) { benchmarkMatMulInto(b, 128) }
func BenchmarkMatMulInto256(b *testing.B) { benchmarkMatMulInto(b, 256) }

func BenchmarkMatMulTInto128(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := Randn(128, 128, 1, rng)
	y := Randn(128, 128, 1, rng)
	dst := New(128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulTInto(dst, x, y)
	}
}

func BenchmarkTMatMulInto128(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := Randn(128, 128, 1, rng)
	y := Randn(128, 128, 1, rng)
	dst := New(128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TMatMulInto(dst, x, y)
	}
}

// BenchmarkMatMulBiasInto measures the fused bias kernel at a layer-like
// shape (batch 64, 100 -> 64 dense).
func BenchmarkMatMulBiasInto(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := Randn(64, 100, 1, rng)
	w := Randn(100, 64, 1, rng)
	bias := make([]float64, 64)
	dst := New(64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulBiasInto(dst, x, w, bias)
	}
}

func BenchmarkDot1k(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, 1024)
	y := make([]float64, 1024)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Dot(x, y)
	}
}

func BenchmarkPercentile(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, 10000)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Percentile(x, 99)
	}
}

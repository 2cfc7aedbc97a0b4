package features

import (
	"math/rand"
	"testing"
)

func benchSeries(n int) []float64 {
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64() * 100
	}
	return x
}

// benchmarkExtractInto measures the steady-state destination-passing form:
// zero allocations once the workspace buffers are warm.
func benchmarkExtractInto(b *testing.B, cat *Catalog, n int) {
	x := benchSeries(n)
	ws := NewWorkspace()
	dst := make([]float64, cat.NumFeaturesPerSeries())
	cat.ExtractSeriesInto(dst, x, ws)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cat.ExtractSeriesInto(dst, x, ws)
	}
}

func BenchmarkExtractIntoMinimal300(b *testing.B)   { benchmarkExtractInto(b, Minimal(), 300) }
func BenchmarkExtractIntoEfficient300(b *testing.B) { benchmarkExtractInto(b, Default(), 300) }
func BenchmarkExtractIntoFull300(b *testing.B)      { benchmarkExtractInto(b, Full(), 300) }
func BenchmarkExtractIntoEfficient1k(b *testing.B)  { benchmarkExtractInto(b, Default(), 1000) }

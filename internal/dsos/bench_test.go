package dsos

import (
	"math/rand"
	"testing"

	"prodigy/internal/ldms"
)

func BenchmarkIngest(b *testing.B) {
	s := NewStore()
	rng := rand.New(rand.NewSource(1))
	values := map[string]float64{}
	for i := 0; i < 50; i++ {
		values[ldms.Schema()[i].Name] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Ingest(ldms.Row{
			JobID: int64(i % 8), Component: i % 16, Timestamp: int64(i),
			Sampler: ldms.Meminfo, Values: values,
		})
	}
}

func BenchmarkQueryJob(b *testing.B) {
	s := NewStore()
	values := map[string]float64{"MemFree": 1, "Cached": 2}
	for ts := int64(0); ts < 300; ts++ {
		for comp := 0; comp < 4; comp++ {
			for _, sampler := range []ldms.SamplerName{ldms.Meminfo, ldms.Vmstat, ldms.Procstat} {
				s.Ingest(ldms.Row{JobID: 1, Component: comp, Timestamp: ts, Sampler: sampler, Values: values})
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.QueryJobInto(nil, 1); err != nil {
			b.Fatal(err)
		}
	}
}

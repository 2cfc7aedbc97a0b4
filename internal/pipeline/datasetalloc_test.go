package pipeline_test

import (
	"testing"

	"prodigy/internal/cluster"
	"prodigy/internal/dsos"
	"prodigy/internal/features"
	"prodigy/internal/hpas"
	"prodigy/internal/ldms"
	"prodigy/internal/pipeline"
	"prodigy/internal/timeseries"
)

// tinyBuilder simulates the tinyCampaign jobs and returns the builder
// without building, so tests can call Build repeatedly (alloc pins,
// arena-reuse determinism).
func tinyBuilder(t testing.TB, seed int64) (*pipeline.DatasetBuilder, *dsos.Store) {
	t.Helper()
	sys := cluster.NewSystem("test", 8, cluster.VoltaNode())
	store := dsos.NewStore()
	builder := pipeline.NewDatasetBuilder(store)
	builder.Gen.TrimSeconds = 20
	builder.Pipe.Catalog = features.Minimal()

	submit := func(app string, inj hpas.Injector) {
		job, err := sys.Submit(app, 4, 140, seed)
		if err != nil {
			t.Fatal(err)
		}
		truth := map[int][2]string{}
		if inj != nil {
			for _, n := range job.Nodes[:2] {
				job.Injectors[n] = inj
				truth[n] = [2]string{inj.Name(), inj.Config()}
			}
		}
		sys.CollectJob(job, ldms.CollectConfig{DropProb: 0.01, Seed: seed + job.ID}, store)
		builder.AddJob(job.ID, app, truth)
		if err := sys.Complete(job.ID); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		submit("lammps", nil)
		submit("nas-cg", nil)
	}
	submit("lammps", hpas.Memleak{SizeMB: 10, Period: 0.1})
	submit("nas-cg", hpas.CPUOccupy{Utilization: 1})
	return builder, store
}

// TestDatasetBuildArenaDeterminism rebuilds the same campaign through
// the arena-backed collect path: the second build reuses the builder's
// own arenas, whose slabs come back dirty, so bit-identical output proves
// the query/align stage fully overwrites every carved slice.
func TestDatasetBuildArenaDeterminism(t *testing.T) {
	builder, _ := tinyBuilder(t, 5)
	first, err := builder.Build()
	if err != nil {
		t.Fatal(err)
	}
	ref := append([]float64(nil), first.X.Data...)
	arenas := append([]*timeseries.Arena(nil), builder.BuildArenas()...)
	if len(arenas) == 0 {
		t.Fatal("the builder kept no arenas after a build")
	}
	for round := 0; round < 2; round++ {
		ds, err := builder.Build()
		if err != nil {
			t.Fatal(err)
		}
		if got := builder.BuildArenas(); len(got) < len(arenas) || got[0] != arenas[0] {
			t.Fatalf("round %d: the build did not reuse the builder's arenas", round)
		}
		if ds.X.Rows != first.X.Rows || ds.X.Cols != first.X.Cols {
			t.Fatalf("round %d: shape %dx%d, want %dx%d", round, ds.X.Rows, ds.X.Cols, first.X.Rows, first.X.Cols)
		}
		for i, v := range ds.X.Data {
			if v != ref[i] {
				t.Fatalf("round %d: cell %d drifted: %v vs %v", round, i, v, ref[i])
			}
		}
	}
}

// TestDatasetBuildAllocs pins the steady-state allocation count of the
// offline dataset build (DESIGN.md §16 satellite of the cascade PR).
// With query/align carved from pooled arenas, what remains is the
// output matrix, sample metadata and worker bookkeeping — all O(samples)
// — instead of the former per-column allocation storm. A regression here
// lands on every campaign build and on BENCH_features.json's
// DatasetBuild entry, so the bound is deliberately tight.
func TestDatasetBuildAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	builder, _ := tinyBuilder(t, 7)
	// Warm the arena pool and feature workspaces.
	for i := 0; i < 3; i++ {
		if _, err := builder.Build(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := builder.Build(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("DatasetBuilder.Build: %.1f allocs/run", allocs)
	const maxAllocs = 256 // measured 181 on the 32-sample tiny campaign
	if allocs > maxAllocs {
		t.Errorf("Build allocated %.1f times per run, over the %d pin", allocs, maxAllocs)
	}
}

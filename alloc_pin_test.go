package prodigy

import (
	"testing"

	"prodigy/internal/core"
	"prodigy/internal/experiments"
	"prodigy/internal/features"
)

// TestAnalyzeJobAllocs pins the steady-state allocation count of the
// production per-job path (query → align → preprocess → extract → score).
// The arena-backed assembly of DESIGN.md §15 keeps the query/align half
// off the heap entirely, and selection-pruned extraction (DESIGN.md §12)
// writes into a pooled feature row; what remains is the result slice, the
// table map, the spans and the per-node score/prediction slices. A regression here lands
// directly on /api/score tail latency as GC pressure, so the bound is
// deliberately tight — raise it only with a hotalloc-clean justification.
func TestAnalyzeJobAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	if testing.Short() {
		t.Skip("trains a model")
	}
	campaign := experiments.CampaignConfig{
		System:           "eclipse",
		Apps:             []string{"lammps"},
		JobsPerApp:       4,
		NodesPerJob:      4,
		Duration:         120,
		AnomalousJobFrac: 0.25,
		Seed:             8,
		Catalog:          features.Minimal(),
	}
	camp, err := experiments.Generate(campaign)
	if err != nil {
		t.Fatal(err)
	}
	cfg := experiments.ProdigyConfig(experiments.Quick, campaign, 8)
	experiments.TopKFor(&cfg, camp.Dataset.X.Cols)
	p := core.New(cfg)
	if err := p.Fit(camp.Dataset, nil); err != nil {
		t.Fatal(err)
	}
	jobs := camp.Store.Jobs()

	// Warm the arena, workspace and feature pools.
	for i := 0; i < 3; i++ {
		if _, err := p.AnalyzeJob(camp.Store, jobs[i%len(jobs)]); err != nil {
			t.Fatal(err)
		}
	}
	job := jobs[0]
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := p.AnalyzeJob(camp.Store, job); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("AnalyzeJob: %.1f allocs/run", allocs)
	const maxAllocs = 26 // measured 22 on the 4-node quick campaign
	if allocs > maxAllocs {
		t.Fatalf("AnalyzeJob allocates %.1f times per run, pin is %d: the arena-backed assembly path regressed", allocs, maxAllocs)
	}
}

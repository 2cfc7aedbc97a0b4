package core_test

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"testing"

	"prodigy/internal/cluster"
	"prodigy/internal/core"
	"prodigy/internal/dsos"
	"prodigy/internal/ensemble"
	"prodigy/internal/features"
	"prodigy/internal/hpas"
	"prodigy/internal/ldms"
	"prodigy/internal/mat"
	"prodigy/internal/pipeline"
	"prodigy/internal/timeseries"
)

// Differential tests for selection-pruned job analysis: AnalyzeJob runs
// only the (metric, extractor) cells the deployed selection reads, and
// must agree bit for bit with a straight-line reference that extracts
// every metric in full and scores the whole vector.

// procsSweep is the GOMAXPROCS sweep every differential case runs under,
// so the agreement holds whatever core count the suite is invoked with.
var procsSweep = []int{1, 2, 8}

// degrader is an ldms.Sink that wrecks a fixed share of every sampler's
// metrics before storing a row: every third metric is constant, every
// third is never reported (an all-missing column), and every third drops
// a sample every few seconds.
type degrader struct{ dst ldms.Sink }

func (d degrader) Ingest(r ldms.Row) {
	names := make([]string, 0, len(r.Values))
	for k := range r.Values {
		names = append(names, k)
	}
	sort.Strings(names)
	vals := make(map[string]float64, len(r.Values))
	for i, k := range names {
		v := r.Values[k]
		switch i % 3 {
		case 0:
			v = 4096
		case 1:
			v = math.NaN()
		case 2:
			if r.Timestamp%4 == 0 {
				v = math.NaN()
			}
		}
		vals[k] = v
	}
	r.Values = vals
	d.dst.Ingest(r)
}

// diffCampaign is a small Eclipse campaign (healthy lammps/sw4lite jobs,
// a memleak and a cpuoccupy job) plus one degraded healthy job that is
// stored but not trained on. It returns the dataset, the store, and every
// job ID, the degraded one last.
func diffCampaign(t *testing.T, seed int64) (*pipeline.Dataset, *dsos.Store, []int64) {
	t.Helper()
	sys := cluster.NewSystem("diff-eclipse", 8, cluster.EclipseNode())
	store := dsos.NewStore()
	builder := pipeline.NewDatasetBuilder(store)
	builder.Gen.TrimSeconds = 20
	builder.Pipe.Catalog = features.Minimal()
	var jobs []int64
	submit := func(app string, inj hpas.Injector, sink ldms.Sink, train bool) {
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
		sys.CollectJob(job, ldms.CollectConfig{DropProb: 0.01, Seed: seed + job.ID}, sink)
		if train {
			builder.AddJob(job.ID, app, truth)
		}
		if err := sys.Complete(job.ID); err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job.ID)
	}
	for i := 0; i < 3; i++ {
		submit("lammps", nil, store, true)
		submit("sw4lite", nil, store, true)
	}
	submit("lammps", hpas.Memleak{SizeMB: 10, Period: 0.05}, store, true)
	submit("sw4lite", hpas.CPUOccupy{Utilization: 1}, store, true)
	submit("lammps", nil, degrader{store}, false)
	ds, err := builder.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ds, store, jobs
}

// diffConfig is quickConfig with a shorter fit: the tests compare two
// extraction paths, not detection quality.
func diffConfig(topK int) core.Config {
	cfg := quickConfig()
	cfg.VAE.Epochs = 60
	cfg.Trainer.TopK = topK
	return cfg
}

// referenceNode extracts one node's table in full — every extractor of
// every metric, into a fresh vector — and scores the whole vector.
func referenceNode(p *core.Prodigy, comp int, tb *timeseries.Table) core.NodePrediction {
	cat := p.Cfg.Catalog
	per := cat.NumFeaturesPerSeries()
	vec := make([]float64, tb.NumMetrics()*per)
	ws := features.NewWorkspace()
	for mi, m := range tb.Order {
		cat.ExtractSeriesInto(vec[mi*per:(mi+1)*per], tb.Columns[m], ws)
	}
	preds, scores, threshold := p.DetectBatch(mat.NewFromData(1, len(vec), vec))
	return core.NodePrediction{Component: comp, Anomalous: preds[0] == 1, Score: scores[0], Threshold: threshold}
}

// referenceAnalysis is the straight-line reference of AnalyzeJob (and,
// with a per-class model lookup, of Hetero.AnalyzeJob): unpooled query
// and preprocessing, then referenceNode per component in order.
func referenceAnalysis(t *testing.T, store *dsos.Store, jobID int64, trim int, model func(*timeseries.Table) *core.Prodigy) []core.NodePrediction {
	t.Helper()
	gen := pipeline.NewDataGenerator(store)
	gen.TrimSeconds = trim
	tables, err := gen.JobTables(jobID)
	if err != nil {
		t.Fatal(err)
	}
	var out []core.NodePrediction
	for _, comp := range store.Components(jobID) {
		if tb, ok := tables[comp]; ok {
			out = append(out, referenceNode(model(tb), comp, tb))
		}
	}
	return out
}

func solo(p *core.Prodigy) func(*timeseries.Table) *core.Prodigy {
	return func(*timeseries.Table) *core.Prodigy { return p }
}

// sameAnalysis reports the first difference between two analyses. Scores
// compare by bit pattern: bit-identity is the contract, not closeness.
func sameAnalysis(got, want []core.NodePrediction) (string, bool) {
	if len(got) != len(want) {
		return "node count differs", false
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Component != w.Component || g.Anomalous != w.Anomalous ||
			math.Float64bits(g.Score) != math.Float64bits(w.Score) ||
			math.Float64bits(g.Threshold) != math.Float64bits(w.Threshold) {
			return fmt.Sprintf("node %d", i), false
		}
	}
	return "", true
}

// checkAgainstReference runs every job through analyze and the reference
// under each GOMAXPROCS of the sweep.
func checkAgainstReference(t *testing.T, store *dsos.Store, jobs []int64, trim int,
	analyze func(int64) ([]core.NodePrediction, error), model func(*timeseries.Table) *core.Prodigy) {
	t.Helper()
	for _, procs := range procsSweep {
		prev := runtime.GOMAXPROCS(procs)
		for _, job := range jobs {
			got, err := analyze(job)
			if err != nil {
				runtime.GOMAXPROCS(prev)
				t.Fatalf("GOMAXPROCS=%d job %d: %v", procs, job, err)
			}
			want := referenceAnalysis(t, store, job, trim, model)
			if where, ok := sameAnalysis(got, want); !ok {
				runtime.GOMAXPROCS(prev)
				t.Fatalf("GOMAXPROCS=%d job %d: pruned analysis differs from the reference at %s:\n got %+v\nwant %+v",
					procs, job, where, got, want)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestPrunedAnalysisMatchesReference covers the solo VAE and the cascade
// ensemble, the NaN-poisoned pooled row, and the degraded job whose
// telemetry holds constant, all-missing and gappy columns.
func TestPrunedAnalysisMatchesReference(t *testing.T) {
	ds, store, jobs := diffCampaign(t, 61)
	degraded := jobs[len(jobs)-1]

	vaeP := core.New(diffConfig(40))
	if err := vaeP.Fit(ds, nil); err != nil {
		t.Fatal(err)
	}
	ensP := core.New(diffConfig(40))
	eCfg := ensemble.Config{
		Prefilter: "naive", PassFrac: 0.3, Fusion: ensemble.FusionRank,
		Members: []string{"vae", "lof"}, Seed: 61,
	}
	if err := ensP.FitEnsemble(ds, nil, eCfg, nil); err != nil {
		t.Fatal(err)
	}

	// The degraded job must actually exercise degenerate inputs: at least
	// one selected feature has to come from a metric the degrader wrecked.
	wrecked := map[string]bool{}
	gen := pipeline.NewDataGenerator(store)
	gen.TrimSeconds = 20
	tables, err := gen.JobTables(degraded)
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range tables {
		for _, m := range tb.Order {
			if mat.Variance(tb.Columns[m]) == 0 {
				wrecked[m] = true
			}
		}
	}

	for _, tc := range []struct {
		name string
		p    *core.Prodigy
	}{
		{"vae", vaeP},
		{"ensemble", ensP},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if cells, full := tc.p.PlanCells(), len(tc.p.FeatureNames()); cells <= 0 || cells > 40 {
				t.Fatalf("plan runs %d cells for a 40-feature selection of %d", cells, full)
			}
			hit := false
			for _, name := range tc.p.Artifact().Selection.Names {
				for m := range wrecked {
					if strings.HasPrefix(name, m+"__") {
						hit = true
					}
				}
			}
			if !hit {
				t.Fatal("no selected feature reads a constant column of the degraded job")
			}
			checkAgainstReference(t, store, jobs, 20, func(job int64) ([]core.NodePrediction, error) {
				return tc.p.AnalyzeJob(store, job)
			}, solo(tc.p))
			checkAgainstReference(t, store, jobs, 20, func(job int64) ([]core.NodePrediction, error) {
				return tc.p.AnalyzeJobPoisoned(store, job)
			}, solo(tc.p))
		})
	}
}

// TestHeteroPrunedAnalysisMatchesReference routes each node of mixed
// CPU/GPU jobs to its class's model, whose plans cover different metric
// schemas, and checks the per-class reference.
func TestHeteroPrunedAnalysisMatchesReference(t *testing.T) {
	parts, store, anomCPUJob, anomGPUJob := heteroCampaign(t, 63)
	h := core.NewHetero(map[string]core.Config{"cpu": diffConfig(40), "gpu": diffConfig(40)})
	if err := h.Fit(parts); err != nil {
		t.Fatal(err)
	}
	jobs := store.Jobs()
	if len(jobs) == 0 || anomCPUJob == 0 || anomGPUJob == 0 {
		t.Fatal("campaign has no jobs")
	}
	checkAgainstReference(t, store, jobs, 20, func(job int64) ([]core.NodePrediction, error) {
		return h.AnalyzeJob(store, job)
	}, func(tb *timeseries.Table) *core.Prodigy { return h.Model(pipeline.NodeClass(tb)) })
}

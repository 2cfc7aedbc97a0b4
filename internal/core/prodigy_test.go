package core_test

import (
	"path/filepath"
	"testing"

	"prodigy/internal/cluster"
	"prodigy/internal/comte"
	"prodigy/internal/core"
	"prodigy/internal/dsos"
	"prodigy/internal/features"
	"prodigy/internal/hpas"
	"prodigy/internal/ldms"
	"prodigy/internal/pipeline"
	"prodigy/internal/vae"
)

// campaign builds a small labeled dataset over simulated Eclipse nodes:
// healthy lammps/sw4lite jobs plus memleak and cpuoccupy jobs.
func campaign(t *testing.T, seed int64) (*pipeline.Dataset, *dsos.Store, int64) {
	t.Helper()
	sys := cluster.NewSystem("mini-eclipse", 8, cluster.EclipseNode())
	store := dsos.NewStore()
	builder := pipeline.NewDatasetBuilder(store)
	builder.Gen.TrimSeconds = 20
	builder.Pipe.Catalog = features.Minimal()

	var anomalousJob int64
	submit := func(app string, inj hpas.Injector) {
		job, err := sys.Submit(app, 4, 140, seed)
		if err != nil {
			t.Fatal(err)
		}
		truth := map[int][2]string{}
		if inj != nil {
			anomalousJob = job.ID
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
		submit("sw4lite", nil)
	}
	submit("lammps", hpas.Memleak{SizeMB: 10, Period: 0.05}) // leak rate scaled to the short run
	submit("sw4lite", hpas.CPUOccupy{Utilization: 1})

	ds, err := builder.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ds, store, anomalousJob
}

func quickConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.VAE = vae.Config{
		HiddenDims: []int{24}, LatentDim: 4, Activation: "tanh",
		LearningRate: 3e-3, BatchSize: 16, Epochs: 250, Beta: 1e-3,
		ClipNorm: 5, Seed: 1,
	}
	cfg.Trainer = pipeline.TrainerConfig{TopK: 40, ThresholdPercentile: 99, ScalerKind: "minmax"}
	cfg.Explain = comte.Config{MaxMetrics: 5, NumDistractors: 3, Restarts: 3, Seed: 1}
	cfg.Catalog = features.Minimal()
	cfg.TrimSeconds = 20
	return cfg
}

func TestFitAndEvaluate(t *testing.T) {
	ds, _, _ := campaign(t, 1)
	p := core.New(quickConfig())
	if p.Trained() {
		t.Fatal("untrained Prodigy claims trained")
	}
	if err := p.Fit(ds, nil); err != nil {
		t.Fatal(err)
	}
	if !p.Trained() {
		t.Fatal("not trained after Fit")
	}
	conf := p.Evaluate(ds)
	if f1 := conf.MacroF1(); f1 < 0.8 {
		t.Fatalf("macro F1 on training campaign = %v (%s)", f1, conf)
	}
	if p.Threshold() <= 0 {
		t.Fatal("threshold not set")
	}
}

func TestFitValidation(t *testing.T) {
	p := core.New(quickConfig())
	if err := p.Fit(nil, nil); err == nil {
		t.Fatal("nil dataset should error")
	}
	if err := p.Fit(&pipeline.Dataset{}, nil); err == nil {
		t.Fatal("empty dataset should error")
	}
}

func TestUntrainedPanics(t *testing.T) {
	p := core.New(quickConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.Threshold()
}

func TestAnalyzeJob(t *testing.T) {
	ds, store, anomJob := campaign(t, 2)
	p := core.New(quickConfig())
	if err := p.Fit(ds, nil); err != nil {
		t.Fatal(err)
	}
	// Adopt the paper's §5.4.4 threshold sweep: the 99th-percentile default
	// over 28 healthy samples is effectively their max and too brittle for
	// a campaign this small.
	p.TuneThreshold(ds)
	report, err := p.AnalyzeJob(store, anomJob)
	if err != nil {
		t.Fatal(err)
	}
	if len(report) != 4 {
		t.Fatalf("report has %d nodes", len(report))
	}
	// The anomalous job had injectors on its first two nodes.
	flagged := 0
	for _, r := range report {
		if r.Anomalous {
			flagged++
		}
		if r.Threshold != p.Threshold() {
			t.Fatal("report threshold mismatch")
		}
	}
	if flagged < 1 || flagged > 3 {
		t.Fatalf("%d nodes flagged; expected the ~2 injected", flagged)
	}
	if _, err := p.AnalyzeJob(store, 9999); err == nil {
		t.Fatal("unknown job should error")
	}
}

func TestExplainReturnsMemoryMetricsForMemleak(t *testing.T) {
	ds, _, _ := campaign(t, 3)
	p := core.New(quickConfig())
	if err := p.Fit(ds, nil); err != nil {
		t.Fatal(err)
	}
	// Find a detected memleak sample.
	preds, _, _ := p.DetectBatch(ds.X)
	idx := -1
	for i, m := range ds.Meta {
		if m.Anomaly == "memleak" && preds[i] == 1 {
			idx = i
			break
		}
	}
	if idx == -1 {
		t.Skip("no memleak sample detected in this seed; separation covered elsewhere")
	}
	expl, err := p.Explain(ds, idx)
	if err != nil {
		t.Logf("explanation larger than requested: %v", err)
	}
	if expl == nil || len(expl.Metrics) == 0 {
		t.Fatal("no explanation produced")
	}
	if expl.ScoreAfter >= expl.ScoreBefore {
		t.Fatalf("substitution should reduce the score: %v -> %v", expl.ScoreBefore, expl.ScoreAfter)
	}
	t.Logf("memleak explanation: %v", expl.Metrics)
}

func TestExplainIndexValidation(t *testing.T) {
	ds, _, _ := campaign(t, 4)
	p := core.New(quickConfig())
	if err := p.Fit(ds, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Explain(ds, -1); err == nil {
		t.Fatal("negative index should error")
	}
	if _, err := p.Explain(ds, ds.Len()); err == nil {
		t.Fatal("out-of-range index should error")
	}
}

func TestSaveLoadDetectParity(t *testing.T) {
	ds, _, _ := campaign(t, 5)
	cfg := quickConfig()
	p := core.New(cfg)
	if err := p.Fit(ds, nil); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "prodigy.json")
	if err := p.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := core.Load(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a1, s1, _ := p.DetectBatch(ds.X)
	a2, s2, _ := loaded.DetectBatch(ds.X)
	for i := range a1 {
		if a1[i] != a2[i] || s1[i] != s2[i] {
			t.Fatal("loaded model disagrees with original")
		}
	}
	// Explain requires the pool after Load.
	healthy := ds.Subset(ds.HealthyIndices())
	loaded.SetExplainPool(healthy.X)
}

func TestTuneThreshold(t *testing.T) {
	ds, _, _ := campaign(t, 6)
	p := core.New(quickConfig())
	if err := p.Fit(ds, nil); err != nil {
		t.Fatal(err)
	}
	before := p.Evaluate(ds).MacroF1()
	p.TuneThreshold(ds)
	after := p.Evaluate(ds).MacroF1()
	if after < before-1e-12 {
		t.Fatalf("tuned threshold degraded F1: %v -> %v", before, after)
	}
}

package pipeline_test

import (
	"path/filepath"
	"strings"
	"testing"

	"prodigy/internal/baselines/usad"
	"prodigy/internal/cluster"
	"prodigy/internal/dsos"
	"prodigy/internal/features"
	"prodigy/internal/hpas"
	"prodigy/internal/ldms"

	"prodigy/internal/pipeline"
	"prodigy/internal/vae"
)

// tinyCampaign simulates a handful of jobs (healthy + memleak) and returns
// the builder's dataset plus the store.
func tinyCampaign(t *testing.T, seed int64) (*pipeline.Dataset, *dsos.Store) {
	t.Helper()
	sys := cluster.NewSystem("test", 8, cluster.VoltaNode(), 0)
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
			// Inject on half the job's nodes.
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
	submit("lammps", hpas.Memleak{SizeMB: 10, Period: 0.1}) // rate scaled up: 140 s run vs the paper's 20-45 min
	submit("nas-cg", hpas.CPUOccupy{Utilization: 1})

	ds, err := builder.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ds, store
}

func TestDatasetAssembly(t *testing.T) {
	ds, _ := tinyCampaign(t, 1)
	// 8 jobs × 4 nodes = 32 samples, of which 2 jobs × 2 nodes = 4 anomalous.
	if ds.Len() != 32 {
		t.Fatalf("dataset has %d samples", ds.Len())
	}
	if got := len(ds.AnomalousIndices()); got != 4 {
		t.Fatalf("%d anomalous samples, want 4", got)
	}
	if got := len(ds.HealthyIndices()); got != 28 {
		t.Fatalf("%d healthy samples", got)
	}
	if len(ds.FeatureNames) != ds.X.Cols {
		t.Fatal("feature name count mismatch")
	}
	// Names are metric-qualified.
	if !strings.Contains(ds.FeatureNames[0], "__") {
		t.Fatalf("feature name %q not metric-qualified", ds.FeatureNames[0])
	}
	// Meta carries app and anomaly info.
	foundLeak := false
	for _, m := range ds.Meta {
		if m.Anomaly == "memleak" {
			foundLeak = true
			if m.Label != pipeline.Anomalous || m.App != "lammps" {
				t.Fatalf("bad meta %+v", m)
			}
		}
	}
	if !foundLeak {
		t.Fatal("memleak samples missing")
	}
}

func TestSubsetPartitions(t *testing.T) {
	ds, _ := tinyCampaign(t, 2)
	h := ds.Subset(ds.HealthyIndices())
	a := ds.Subset(ds.AnomalousIndices())
	if h.Len()+a.Len() != ds.Len() {
		t.Fatal("subset sizes")
	}
	if h.X.Cols != ds.X.Cols || a.X.Cols != ds.X.Cols {
		t.Fatal("subsets must keep the feature width")
	}
}

func TestDataGeneratorPreprocessing(t *testing.T) {
	_, store := tinyCampaign(t, 3)
	gen := pipeline.NewDataGenerator(store)
	gen.TrimSeconds = 20
	jobs := store.Jobs()
	tables, err := gen.JobTables(jobs[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range tables {
		// Trim: 140 s run − 2×20 s ≈ ≤100 aligned seconds.
		if tb.Len() > 101 {
			t.Fatalf("trim not applied: %d seconds", tb.Len())
		}
		// Accumulated counters became differences: ctxt::procstat should be
		// small per-second values, not monotone millions.
		ctxt := tb.Column("ctxt::procstat")
		if ctxt == nil {
			t.Fatal("ctxt column missing")
		}
		increasing := 0
		for i := 1; i < len(ctxt); i++ {
			if ctxt[i] > ctxt[i-1] {
				increasing++
			}
		}
		if increasing == len(ctxt)-1 {
			t.Fatal("ctxt still monotone: differencing not applied")
		}
	}
	if _, err := gen.JobTables(9999); err == nil {
		t.Fatal("unknown job should error")
	}
}

func trainProdigyArtifact(t *testing.T, ds *pipeline.Dataset) *pipeline.Artifact {
	t.Helper()
	trainer := &pipeline.ModelTrainer{
		Cfg: pipeline.TrainerConfig{TopK: 40, ThresholdPercentile: 99, ScalerKind: "minmax"},
		NewModel: func(in int) (pipeline.Model, error) {
			cfg := vae.DefaultConfig(in)
			cfg.HiddenDims = []int{24}
			cfg.LatentDim = 4
			cfg.Epochs = 250
			cfg.BatchSize = 16
			cfg.LearningRate = 3e-3
			return pipeline.NewVAEModel(cfg)
		},
	}
	artifact, err := trainer.Train(ds, ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	return artifact
}

// TestTrainDetectEndToEnd covers the full §3 flow on simulated telemetry:
// selection, scaling, VAE training, threshold, detection.
func TestTrainDetectEndToEnd(t *testing.T) {
	ds, _ := tinyCampaign(t, 4)
	artifact := trainProdigyArtifact(t, ds)
	if artifact.ModelKind != "vae" {
		t.Fatalf("kind = %s", artifact.ModelKind)
	}
	if len(artifact.Selection.Indices) != 40 {
		t.Fatalf("selected %d features", len(artifact.Selection.Indices))
	}
	det, err := artifact.Detector()
	if err != nil {
		t.Fatal(err)
	}
	preds, scores := det.Predict(ds.X)
	if len(preds) != ds.Len() || len(scores) != ds.Len() {
		t.Fatal("prediction lengths")
	}
	// The injected anomalies must be detected (they are far out of
	// distribution), and most healthy samples must not be flagged.
	labels := ds.Labels()
	tp, fp := 0, 0
	for i, p := range preds {
		if p == 1 && labels[i] == 1 {
			tp++
		}
		if p == 1 && labels[i] == 0 {
			fp++
		}
	}
	if tp < 3 {
		t.Fatalf("only %d/4 anomalies detected", tp)
	}
	if fp > 3 {
		t.Fatalf("%d false positives on 28 healthy", fp)
	}
}

func TestArtifactSaveLoadRoundTrip(t *testing.T) {
	ds, _ := tinyCampaign(t, 5)
	artifact := trainProdigyArtifact(t, ds)
	path := filepath.Join(t.TempDir(), "models", "prodigy.json")
	if err := artifact.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := pipeline.LoadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Threshold != artifact.Threshold {
		t.Fatal("threshold changed across persistence")
	}
	d1, _ := artifact.Detector()
	d2, _ := loaded.Detector()
	s1 := d1.Scores(ds.X)
	s2 := d2.Scores(ds.X)
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatal("loaded artifact scores differ")
		}
	}
}

func TestTrainerValidation(t *testing.T) {
	ds, _ := tinyCampaign(t, 6)
	trainer := &pipeline.ModelTrainer{Cfg: pipeline.DefaultTrainerConfig()}
	if _, err := trainer.Train(ds, ds, nil); err == nil {
		t.Fatal("nil NewModel should error")
	}
	trainer.NewModel = func(in int) (pipeline.Model, error) {
		return pipeline.NewVAEModel(vae.DefaultConfig(in))
	}
	if _, err := trainer.Train(ds, nil, nil); err == nil {
		t.Fatal("no selection and no selection data should error")
	}
	onlyAnom := ds.Subset(ds.AnomalousIndices())
	if _, err := trainer.Train(onlyAnom, ds, nil); err != nil {
		// Training set with no healthy samples must error — but the error
		// path runs after selection, so construct it directly.
		t.Logf("got expected error: %v", err)
	} else {
		t.Fatal("training on anomalous-only data should error")
	}
}

func TestUSADModelAdapter(t *testing.T) {
	ds, _ := tinyCampaign(t, 7)
	trainer := &pipeline.ModelTrainer{
		Cfg: pipeline.TrainerConfig{TopK: 30, ThresholdPercentile: 99, ScalerKind: "minmax"},
		NewModel: func(in int) (pipeline.Model, error) {
			cfg := usadSmall(in)
			return pipeline.NewUSADModel(cfg)
		},
	}
	artifact, err := trainer.Train(ds, ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	if artifact.ModelKind != "usad" {
		t.Fatalf("kind = %s", artifact.ModelKind)
	}
	// The live artifact detects normally.
	det, err := artifact.Detector()
	if err != nil {
		t.Fatal(err)
	}
	preds, _ := det.Predict(ds.X)
	if len(preds) != ds.Len() {
		t.Fatal("prediction length")
	}
	// USAD artifacts round-trip through disk like VAE ones.
	path := filepath.Join(t.TempDir(), "usad.json")
	if err := artifact.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := pipeline.LoadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	det2, err := loaded.Detector()
	if err != nil {
		t.Fatal(err)
	}
	s1 := det.Scores(ds.X)
	s2 := det2.Scores(ds.X)
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatal("loaded USAD artifact scores differ")
		}
	}
}

// usadSmall returns a quick USAD config for tests.
func usadSmall(in int) usad.Config {
	cfg := usad.DefaultConfig(in)
	cfg.HiddenSize = 24
	cfg.LatentDim = 4
	cfg.Epochs = 30
	cfg.WarmupEpochs = 20
	cfg.BatchSize = 16
	return cfg
}

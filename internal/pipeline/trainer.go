package pipeline

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"prodigy/internal/baselines/usad"
	"prodigy/internal/featsel"
	"prodigy/internal/mat"
	"prodigy/internal/obs"
	"prodigy/internal/scale"
	"prodigy/internal/vae"
)

// Scoring telemetry (see DESIGN.md §8): every deployed detector reports
// throughput, batch latency by execution path, fan-out utilization and the
// score distribution itself — the p50/p95/p99 reconstruction error that
// feeds the drift story. The per-batch cost is a few atomic adds, kept
// invisible next to the matrix math it measures.
var (
	scoresTotal = obs.Default.NewCounter("prodigy_scores_total",
		"Samples scored through a deployed AnomalyDetector, all paths.")
	scoreErrors = obs.Default.NewHistogram("prodigy_score_error",
		"Reconstruction-error (anomaly score) distribution of scored samples.", obs.ScoreBuckets)
	batchScoreDur = obs.Default.NewHistogramVec("pipeline_batch_score_seconds",
		"Wall time of one AnomalyDetector.Scores batch, by execution path.", obs.DefBuckets, "path")
	scoreBatches = obs.Default.NewCounterVec("pipeline_score_batches_total",
		"Scored batches, by execution path (serial vs parallel fan-out).", "path")
	busyScoreWorkers = obs.Default.NewGauge("pipeline_score_workers_busy",
		"Scoring workers currently running in the parallel fan-out.")
	anomaliesTotal = obs.Default.NewCounter("prodigy_anomalies_total",
		"Samples whose score crossed the deployed threshold (Predict verdicts).")
)

// instrumentationOn gates the per-batch model-health accounting (cost
// ledger, score sketch, score histograms). It exists for exactly one
// consumer: BenchmarkScoringUninstrumented, which proves the accounting
// costs <5% next to the matrix math. Production never turns it off.
var instrumentationOn atomic.Bool

func init() { instrumentationOn.Store(true) }

// SetInstrumentation toggles per-batch scoring telemetry (benchmarks
// only). Returns the previous setting.
//
//lint:ignore deadcode benchmark seam: the 5% instrumentation-overhead gate of TestBenchJSON/scoring times BenchmarkScoringUninstrumented with it off
func SetInstrumentation(on bool) bool { return instrumentationOn.Swap(on) }

// InstrumentationEnabled reports whether per-batch scoring telemetry is
// on, so composite models (the ensemble's per-member cost accounting)
// honor the same benchmark-only kill switch.
func InstrumentationEnabled() bool { return instrumentationOn.Load() }

// ScoreQuantiles summarizes the process-wide reconstruction-error
// distribution (p50/p95/p99) — the snapshot /api/health and /api/drift
// report next to the threshold.
func ScoreQuantiles() (p50, p95, p99 float64) {
	return scoreErrors.Quantile(0.50), scoreErrors.Quantile(0.95), scoreErrors.Quantile(0.99)
}

// recordBatch publishes one finished Scores call: throughput counters and
// the process-wide score histogram, plus the detector's own cost-ledger
// entry and distribution sketch (the model-health layer — per-model
// ns/row on /api/health, live-vs-baseline KS on /api/alerts). Everything
// here is atomic adds on pre-resolved series: zero allocations per batch.
func (d *AnomalyDetector) recordBatch(path string, start time.Time, scores []float64) {
	if !instrumentationOn.Load() {
		return
	}
	elapsed := time.Since(start)
	batchScoreDur.With(path).Observe(elapsed.Seconds())
	scoreBatches.With(path).Inc()
	scoresTotal.Add(float64(len(scores)))
	for _, s := range scores {
		scoreErrors.Observe(s)
		d.sketch.Observe(s)
	}
	d.cost.Record(len(scores), elapsed)
}

// Model is the contract detection models implement: fit on healthy feature
// vectors, then score arbitrary vectors (higher = more anomalous).
//
// Scores must be stateless — safe for any number of concurrent callers on
// one shared model — while FitHealthy is single-goroutine and must not run
// concurrently with Scores. Both VAE and USAD satisfy this via nn.Network's
// cache-free InferInto path.
type Model interface {
	FitHealthy(x *mat.Matrix) error
	Scores(x *mat.Matrix) []float64
	Kind() string
}

// Scorer is the scoring half of Model.
type Scorer interface {
	Scores(x *mat.Matrix) []float64
}

// BatchBeginner is implemented by models with per-batch state (the
// ensemble's budget scheduler and the fleet members it keeps active).
// AnomalyDetector.Scores calls BeginBatch once per logical batch, before
// fanning the rows out across workers, and scores every chunk with the
// Scorer it returns. So the scheduler's step count does not depend on
// GOMAXPROCS, and every chunk of a batch sees the same state even while
// other batches begin concurrently.
type BatchBeginner interface {
	BeginBatch() Scorer
}

// beginBatch returns the scorer for one logical batch: the model itself,
// or what its BeginBatch returns.
func beginBatch(m Model) Scorer {
	if b, ok := m.(BatchBeginner); ok {
		return b.BeginBatch()
	}
	return m
}

// VAEModel adapts vae.VAE to the Model contract.
type VAEModel struct{ *vae.VAE }

// NewVAEModel constructs an untrained VAE model from a config.
func NewVAEModel(cfg vae.Config) (*VAEModel, error) {
	v, err := vae.New(cfg)
	if err != nil {
		return nil, err
	}
	return &VAEModel{VAE: v}, nil
}

// FitHealthy implements Model.
func (m *VAEModel) FitHealthy(x *mat.Matrix) error {
	_, err := m.Fit(x, nil)
	return err
}

// Kind implements Model.
func (m *VAEModel) Kind() string { return "vae" }

// USADModel adapts usad.USAD to the Model contract.
type USADModel struct{ *usad.USAD }

// NewUSADModel constructs an untrained USAD model from a config.
func NewUSADModel(cfg usad.Config) (*USADModel, error) {
	u, err := usad.New(cfg)
	if err != nil {
		return nil, err
	}
	return &USADModel{USAD: u}, nil
}

// FitHealthy implements Model.
func (m *USADModel) FitHealthy(x *mat.Matrix) error { return m.Fit(x, nil) }

// Kind implements Model.
func (m *USADModel) Kind() string { return "usad" }

// TrainerConfig controls ModelTrainer.
type TrainerConfig struct {
	// TopK features selected by Chi-square (paper: 2000 performs best).
	TopK int
	// ThresholdPercentile of training reconstruction errors (paper: 99).
	ThresholdPercentile float64
	// ScalerKind is "minmax" (paper default), "standard" or "robust".
	ScalerKind string
	// Workers caps the data-parallel fan-out of model training (DESIGN.md
	// §11); 0 leaves the model config's own setting (whose zero value
	// means GOMAXPROCS). Trained weights are bit-identical for every
	// value.
	Workers int
}

// DefaultTrainerConfig returns the paper's settings.
func DefaultTrainerConfig() TrainerConfig {
	return TrainerConfig{TopK: 2000, ThresholdPercentile: 99, ScalerKind: "minmax"}
}

// ModelTrainer mirrors §4.2.1's ModelTrainer: it owns feature selection,
// scaling, model fitting and threshold calibration, and persists everything
// needed for production inference.
type ModelTrainer struct {
	Cfg TrainerConfig
	// NewModel constructs the model for a given (selected) input width.
	NewModel func(inputDim int) (Model, error)
}

// Artifact is the deployable bundle ModelTrainer produces: the trained
// model, scaler, feature selection and metadata (the "model weights, model
// architecture, scaler, metadata" box of Figure 3).
type Artifact struct {
	ModelKind string             `json:"model_kind"`
	Model     json.RawMessage    `json:"model"`
	Scaler    json.RawMessage    `json:"scaler"`
	Selection *featsel.Selection `json:"selection"`
	Threshold float64            `json:"threshold"`
	// Metadata for drift checks at inference time.
	ThresholdPercentile float64  `json:"threshold_percentile"`
	FullFeatureNames    []string `json:"full_feature_names"`
	// CatalogTier and TrimSeconds record the extraction settings the model
	// was trained with so a loaded model reproduces them exactly.
	CatalogTier int `json:"catalog_tier"`
	TrimSeconds int `json:"trim_seconds"`

	model  Model
	scaler scale.Scaler
}

// Train runs the full §3 flow:
//  1. Chi-square feature selection on the selection dataset (which must
//     contain both classes — minimal supervision, §5.4.3);
//  2. min-max scaling fit on the healthy training samples;
//  3. model training on scaled healthy samples only;
//  4. threshold = ThresholdPercentile of training reconstruction errors.
//
// selection may be nil, in which case selectData must be non-nil to compute
// one; pass a precomputed selection to reuse across folds.
func (t *ModelTrainer) Train(train *Dataset, selectData *Dataset, selection *featsel.Selection) (*Artifact, error) {
	if t.NewModel == nil {
		return nil, fmt.Errorf("pipeline: ModelTrainer.NewModel is nil")
	}
	if selection == nil {
		if selectData == nil {
			return nil, fmt.Errorf("pipeline: need either a selection or selection data")
		}
		var err error
		selection, err = featsel.Select(selectData.X, selectData.Labels(), selectData.FeatureNames, t.Cfg.TopK)
		if err != nil {
			return nil, fmt.Errorf("pipeline: feature selection: %w", err)
		}
	}

	healthy := train.Subset(train.HealthyIndices())
	if healthy.Len() == 0 {
		return nil, fmt.Errorf("pipeline: no healthy samples to train on")
	}
	xSel := selection.Apply(healthy.X)

	scaler, err := scale.New(t.Cfg.ScalerKind)
	if err != nil {
		return nil, err
	}
	xScaled := scale.FitTransform(scaler, xSel)

	model, err := t.NewModel(xScaled.Cols)
	if err != nil {
		return nil, err
	}
	// Thread the trainer's Workers knob into the model config regardless
	// of how the NewModel closure was built, so callers set it in one
	// place.
	if t.Cfg.Workers != 0 {
		switch m := model.(type) {
		case *VAEModel:
			m.Cfg.Workers = t.Cfg.Workers
		case *USADModel:
			m.Cfg.Workers = t.Cfg.Workers
		}
	}
	if err := model.FitHealthy(xScaled); err != nil {
		return nil, err
	}

	scores := model.Scores(xScaled)
	threshold := mat.Percentile(scores, t.Cfg.ThresholdPercentile)

	modelBlob, err := json.Marshal(model)
	if err != nil {
		return nil, fmt.Errorf("pipeline: model not serializable: %w", err)
	}
	scalerBlob, err := scale.Marshal(scaler)
	if err != nil {
		return nil, err
	}
	return &Artifact{
		ModelKind:           model.Kind(),
		Model:               modelBlob,
		Scaler:              scalerBlob,
		Selection:           selection,
		Threshold:           threshold,
		ThresholdPercentile: t.Cfg.ThresholdPercentile,
		FullFeatureNames:    train.FeatureNames,
		model:               model,
		scaler:              scaler,
	}, nil
}

// TrainJob pairs a ModelTrainer with its datasets for TrainAll.
type TrainJob struct {
	Trainer *ModelTrainer
	// Train and Select are the datasets passed to Trainer.Train; Selection,
	// when non-nil, is reused instead of recomputing one from Select.
	Train, Select *Dataset
	Selection     *featsel.Selection
}

// TrainAll fits independent models concurrently — e.g. the Prodigy VAE
// and the USAD baseline over the same fold — and returns their artifacts
// in job order. Each ModelTrainer owns its model, sharder and workspaces,
// so the fits share nothing but read-only datasets; per-model results are
// identical to running the jobs serially. The first error wins.
func TrainAll(jobs []TrainJob) ([]*Artifact, error) {
	arts := make([]*Artifact, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j TrainJob) {
			defer wg.Done()
			arts[i], errs[i] = j.Trainer.Train(j.Train, j.Select, j.Selection)
		}(i, j)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("pipeline: concurrent train job %d: %w", i, err)
		}
	}
	return arts, nil
}

// Detector returns an AnomalyDetector over this artifact. Each detector
// carries a fresh score-distribution sketch (so a model swap naturally
// starts a clean distribution) and the cost-ledger entry for its model
// kind, both resolved here — off the hot path.
func (a *Artifact) Detector() (*AnomalyDetector, error) {
	if a.model == nil || a.scaler == nil {
		if err := a.rehydrate(); err != nil {
			return nil, err
		}
	}
	return &AnomalyDetector{
		artifact: a,
		sketch:   obs.NewSketch(),
		cost:     obs.CostFor(a.ModelKind),
	}, nil
}

// rehydrate reconstructs the live model and scaler from the serialized
// blobs (after loading from disk).
func (a *Artifact) rehydrate() error {
	scaler, err := scale.Unmarshal(a.Scaler)
	if err != nil {
		return err
	}
	a.scaler = scaler
	model, err := DecodeModel(a.ModelKind, a.Model)
	if err != nil {
		return err
	}
	a.model = model
	return nil
}

// DecodeModel reconstructs a fitted model from its serialized form: the
// built-in kinds directly, anything else through the RegisterModelKind
// registry. The ensemble uses this to rehydrate fleet members nested
// inside its own blob.
func DecodeModel(kind string, blob json.RawMessage) (Model, error) {
	switch kind {
	case "vae":
		v := &vae.VAE{}
		if err := json.Unmarshal(blob, v); err != nil {
			return nil, err
		}
		return &VAEModel{VAE: v}, nil
	case "usad":
		u := &usad.USAD{}
		if err := json.Unmarshal(blob, u); err != nil {
			return nil, err
		}
		return &USADModel{USAD: u}, nil
	default:
		m, ok, err := decodeRegistered(kind, blob)
		if err != nil {
			return nil, fmt.Errorf("pipeline: rehydrate %q: %w", kind, err)
		}
		if !ok {
			return nil, fmt.Errorf("pipeline: cannot rehydrate model kind %q", kind)
		}
		return m, nil
	}
}

// LiveModel exposes the in-memory model behind the artifact, rehydrating
// from the serialized blob on first use. The ensemble introspection path
// (server health, budget scheduler wiring) uses this to reach through a
// deployed artifact.
func (a *Artifact) LiveModel() (Model, error) {
	if a.model == nil {
		if err := a.rehydrate(); err != nil {
			return nil, err
		}
	}
	return a.model, nil
}

// LiveScaler exposes the fitted scaler behind the artifact, rehydrating
// on first use — ensemble training reuses a member artifact's scaler as
// the composite's own.
func (a *Artifact) LiveScaler() (scale.Scaler, error) {
	if a.scaler == nil {
		if err := a.rehydrate(); err != nil {
			return nil, err
		}
	}
	return a.scaler, nil
}

// AssembleArtifact bundles an already-fitted model into a deployable
// Artifact — the path for composite models (the cascade ensemble) whose
// training doesn't flow through a single ModelTrainer.Train call. The
// scaler and selection must be the ones the model's fit saw; threshold
// is the caller's calibrated decision boundary in the model's score
// space.
func AssembleArtifact(model Model, scaler scale.Scaler, selection *featsel.Selection,
	threshold, thresholdPercentile float64, fullNames []string) (*Artifact, error) {
	modelBlob, err := json.Marshal(model)
	if err != nil {
		return nil, fmt.Errorf("pipeline: model not serializable: %w", err)
	}
	scalerBlob, err := scale.Marshal(scaler)
	if err != nil {
		return nil, err
	}
	return &Artifact{
		ModelKind:           model.Kind(),
		Model:               modelBlob,
		Scaler:              scalerBlob,
		Selection:           selection,
		Threshold:           threshold,
		ThresholdPercentile: thresholdPercentile,
		FullFeatureNames:    fullNames,
		model:               model,
		scaler:              scaler,
	}, nil
}

// Save writes the artifact to a JSON file, creating parent directories.
func (a *Artifact) Save(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	blob, err := json.Marshal(a)
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// LoadArtifact reads an artifact saved by Save and rehydrates it.
func LoadArtifact(path string) (*Artifact, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	a := &Artifact{}
	if err := json.Unmarshal(blob, a); err != nil {
		return nil, err
	}
	if err := a.rehydrate(); err != nil {
		return nil, err
	}
	return a, nil
}

// AnomalyDetector mirrors §4.3: given feature vectors in the *full*
// extracted space, it applies the persisted selection and scaler, scores
// with the model, and thresholds. Scores and Predict are safe for
// concurrent use; SetThreshold is a training-time operation and must not
// race with them.
type AnomalyDetector struct {
	artifact *Artifact
	// sketch accumulates this detector's score distribution (fixed
	// memory, lock-free); fresh per Detector() call, so each deployed
	// generation is tracked separately.
	sketch *obs.Sketch
	// cost is the ledger entry for this artifact's model kind.
	cost *obs.CostEntry
}

// Artifact exposes the underlying bundle.
func (d *AnomalyDetector) Artifact() *Artifact { return d.artifact }

// ScoreSketch exposes the live score-distribution sketch — the "live"
// side of the score-shift alert.
func (d *AnomalyDetector) ScoreSketch() *obs.Sketch { return d.sketch }

// parallelScoreMinRows is the batch size below which fanning scoring out
// across workers costs more in goroutine overhead than it recovers.
const parallelScoreMinRows = 128

// Scores returns anomaly scores for full-feature-space vectors. Large
// batches fan out across GOMAXPROCS workers — safe because Model.Scores is
// stateless — so batch throughput scales with cores. Selection and scaling
// run through a pooled workspace, so repeated batch scoring reuses the
// same buffers instead of allocating two full-batch matrices per call.
func (d *AnomalyDetector) Scores(xFull *mat.Matrix) []float64 {
	//lint:ignore detorder observability-only: scoring latency is recorded to the obs registry, never mixed into the scores
	start := time.Now()
	a := d.artifact
	ws := mat.GetWorkspace()
	defer mat.Release(ws)
	x := a.Selection.ApplyInto(ws.Get(xFull.Rows, len(a.Selection.Indices)), xFull)
	a.scaler.TransformInto(x, x)
	model := beginBatch(a.model)
	workers := runtime.GOMAXPROCS(0)
	if x.Rows < parallelScoreMinRows || workers < 2 {
		out := model.Scores(x)
		d.recordBatch("serial", start, out)
		return out
	}
	if workers > x.Rows {
		workers = x.Rows
	}
	out := make([]float64, x.Rows)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * x.Rows / workers
		hi := (w + 1) * x.Rows / workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			busyScoreWorkers.Add(1)
			defer busyScoreWorkers.Add(-1)
			defer wg.Done()
			// Rows are contiguous in the row-major buffer, so a chunk is a
			// zero-copy sub-matrix view.
			chunk := mat.NewFromData(hi-lo, x.Cols, x.Data[lo*x.Cols:hi*x.Cols])
			copy(out[lo:hi], model.Scores(chunk))
		}(lo, hi)
	}
	wg.Wait()
	d.recordBatch("parallel", start, out)
	return out
}

// Predict returns binary predictions (1 = anomalous) and the scores.
// Threshold crossings feed prodigy_anomalies_total — the series the
// anomaly-rate-spike alert watches.
func (d *AnomalyDetector) Predict(xFull *mat.Matrix) ([]int, []float64) {
	scores := d.Scores(xFull)
	preds := make([]int, len(scores))
	anomalies := 0
	for i, s := range scores {
		if s > d.artifact.Threshold {
			preds[i] = 1
			anomalies++
		}
	}
	if anomalies > 0 && instrumentationOn.Load() {
		anomaliesTotal.Add(float64(anomalies))
	}
	return preds, scores
}

// Threshold returns the calibrated decision threshold.
func (d *AnomalyDetector) Threshold() float64 { return d.artifact.Threshold }

// SetThreshold overrides the decision threshold (used by the validation
// sweep of §5.4.4).
func (d *AnomalyDetector) SetThreshold(th float64) { d.artifact.Threshold = th }

// Package core is the public face of the Prodigy framework: a VAE-based
// unsupervised anomaly detection pipeline for HPC telemetry (the paper's
// primary contribution). It ties together feature extraction, Chi-square
// selection, scaling, VAE training with a reconstruction-error threshold,
// job/node-level detection against a telemetry store, and CoMTE
// counterfactual explanations.
//
// Typical flow:
//
//	p := core.New(core.DefaultConfig())
//	err := p.Fit(trainSet, selectionSet)          // train on healthy samples
//	preds, scores, _ := p.DetectBatch(testSet.X) // per-sample detection
//	report, _ := p.AnalyzeJob(store, jobID)       // per-node dashboard rows
//	expl, _ := p.Explain(testSet, sampleIdx)      // counterfactual explanation
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"

	"prodigy/internal/baselines/usad"
	"prodigy/internal/comte"
	"prodigy/internal/drift"
	"prodigy/internal/dsos"
	"prodigy/internal/ensemble"
	"prodigy/internal/eval"
	"prodigy/internal/featsel"
	"prodigy/internal/features"
	"prodigy/internal/mat"
	"prodigy/internal/obs"
	"prodigy/internal/pipeline"
	"prodigy/internal/timeseries"
	"prodigy/internal/vae"
)

// Deployment telemetry (DESIGN.md §8): the gauges describe the model
// snapshot most recently deployed in this process (Fit or Load — with
// several Prodigy instances the last deployment wins, which matches the
// one-deployed-model-per-process serving shape of §4).
var (
	modelThreshold = obs.Default.NewGauge("prodigy_model_threshold",
		"Decision threshold of the deployed model.")
	modelFeatures = obs.Default.NewGauge("prodigy_model_features",
		"Full extracted-feature count the deployed model scores against.")
)

// Config bundles the tunables of the framework. Zero values are filled
// from the paper's defaults by New.
type Config struct {
	// VAE holds the model hyperparameters; InputDim is set automatically
	// from the selected feature count.
	VAE vae.Config
	// Trainer holds feature selection / scaling / threshold settings.
	Trainer pipeline.TrainerConfig
	// Explain holds CoMTE settings.
	Explain comte.Config
	// Catalog is the feature-extraction catalog; nil uses features.Default().
	// It must match the catalog used to build the training dataset.
	Catalog *features.Catalog
	// TrimSeconds for job preprocessing in AnalyzeJob; 0 uses the paper's 60.
	TrimSeconds int
}

// catalog returns the effective feature catalog.
func (c *Config) catalog() *features.Catalog {
	if c.Catalog != nil {
		return c.Catalog
	}
	return features.Default()
}

// DefaultConfig returns the paper-tuned configuration (Table 3 optima and
// §5.4 settings).
func DefaultConfig() Config {
	return Config{
		VAE:     vae.DefaultConfig(0), // input dim filled at train time
		Trainer: pipeline.DefaultTrainerConfig(),
		Explain: comte.DefaultConfig(),
	}
}

// Prodigy is a configured (and possibly trained) detection pipeline.
//
// All read paths (Detect, Scores, AnalyzeJob, DetectVector, Explain…) load
// the deployed detector through one atomic pointer, so any number of
// goroutines may score concurrently while Fit installs a new artifact:
// readers in flight finish against the old model, later readers see the
// new one, and nobody stalls. Fit, TuneThreshold and SetExplainPool are
// deployment-time operations — run them from one goroutine.
type Prodigy struct {
	Cfg Config
	// deployed is the live model snapshot: the detector together with the
	// extraction plan and column map compiled from its selection,
	// published as one.
	deployed atomic.Pointer[Snapshot]
	// healthyTrain retains the healthy training pool (full feature space)
	// for CoMTE distractors.
	healthyTrain atomic.Pointer[mat.Matrix]
}

// Snapshot is one deployed model: the detector together with what its
// feature selection compiles to, published as one. AnalyzeJob gathers
// only the metrics and extracts only the (metric, extractor) cells the
// selection reads, and /api/score decodes only the columns it reads, so
// the plan, its read set and the column map must always describe the
// detector they are published with: a Fit replaces all of them in one
// atomic store. A Snapshot is immutable; the serving tier pins the one
// deployed when it was built and scores every shard's batches with it.
type Snapshot struct {
	det *pipeline.AnomalyDetector
	// cat is the catalog the plan was compiled against.
	cat *features.Catalog
	// plan is nil when the artifact's feature space does not fit cat; job
	// analysis then fails its width check before it would need one.
	plan *features.Plan
	// metrics[k] is the qualified name of the metric at position
	// plan.Metrics[k] of a node's table, and reads is their set: job
	// analysis gathers only those columns and checks each node's names.
	metrics []string
	reads   dsos.ReadSet
	// cols maps each full-width column to its position in a selected
	// row, or -1 for a column the model does not read; nil when the
	// selection names a column twice or one outside the feature space.
	cols []int
}

// newSnapshot compiles the extraction plan and the column map of det's
// selection over cat.
func newSnapshot(det *pipeline.AnomalyDetector, cat *features.Catalog) *Snapshot {
	d := &Snapshot{det: det, cat: cat}
	a := det.Artifact()
	per, width := cat.NumFeaturesPerSeries(), len(a.FullFeatureNames)
	if a.Selection != nil && per > 0 && width%per == 0 {
		if plan, err := cat.Plan(a.Selection.Indices, width/per); err == nil {
			d.plan, d.metrics, d.reads = planReads(plan, a.FullFeatureNames, cat)
		}
	}
	if a.Selection != nil {
		d.cols = columnMap(a.Selection.Indices, width)
	}
	return d
}

// planReads names the metric at each planned position from the full
// feature names, where metric i's block starts with "metric__<first
// feature>" at index i·per. It returns a nil plan when the names do not
// follow that layout, since the names the plan reads are then unknown.
func planReads(plan *features.Plan, names []string, cat *features.Catalog) (*features.Plan, []string, dsos.ReadSet) {
	per := cat.NumFeaturesPerSeries()
	suffix := "__" + cat.SeriesFeatureNames()[0]
	metrics := make([]string, len(plan.Metrics))
	reads := make(dsos.ReadSet, len(plan.Metrics))
	for k, mi := range plan.Metrics {
		m, ok := strings.CutSuffix(names[mi*per], suffix)
		if !ok {
			return nil, nil, nil
		}
		metrics[k] = m
		reads[m] = true
	}
	return plan, metrics, reads
}

// columnMap inverts a selection: cols[j] is the position of full column
// j in a selected row, or -1. It returns nil for an index outside
// [0, width) or one selected twice, which no inverse can express.
func columnMap(indices []int, width int) []int {
	cols := make([]int, width)
	for j := range cols {
		cols[j] = -1
	}
	for k, j := range indices {
		if j < 0 || j >= width || cols[j] >= 0 {
			return nil
		}
		cols[j] = k
	}
	return cols
}

// Width is the full feature width the snapshot's model was trained
// against: the width of every vector a request carries.
func (d *Snapshot) Width() int { return len(d.det.Artifact().FullFeatureNames) }

// Columns returns the column map of the snapshot's selection — for each
// full-width column, its position in a selected row or -1 — together
// with the selected width. cols is nil when the selection has no
// inverse (see columnMap). The map is shared: do not modify it.
func (d *Snapshot) Columns() (cols []int, selected int) {
	return d.cols, len(d.det.Artifact().Selection.Indices)
}

// SelectRow writes the selected columns of one full-width vector into
// dst, in selection order.
func (d *Snapshot) SelectRow(dst, vec []float64) {
	for k, j := range d.det.Artifact().Selection.Indices {
		dst[k] = vec[j]
	}
}

// DetectSelected scores rows that are already selected — x holds, per
// row, the selected columns in selection order, as SelectRow or a decode
// under Columns lays them out — and returns the predictions and scores
// with the threshold they were judged against. x is scaled in place.
func (d *Snapshot) DetectSelected(x *mat.Matrix) (preds []int, scores []float64, threshold float64) {
	preds, scores = d.det.PredictSelected(x)
	return preds, scores, d.det.Threshold()
}

// ScoreShift tests the live score distribution of the deployed detector
// against its artifact's baseline, the healthy training scores the
// threshold was taken from: the KS statistic, its p-value, and how many
// live observations back the verdict. ok is false while untrained or
// when the artifact's baseline does not fit the sketch (an artifact saved
// before baselines existed has none) — alert rules treat that as "not
// evaluable", never as "no shift".
func (p *Prodigy) ScoreShift() (stat, pValue float64, n uint64, ok bool) {
	dep := p.deployed.Load()
	if dep == nil {
		return 0, 1, 0, false
	}
	live := dep.det.ScoreSketch().Snapshot()
	base := dep.det.Artifact().Baseline
	if len(base) != len(live.Counts) {
		return 0, 1, 0, false
	}
	stat, pValue = drift.KSFromCounts(live.CountsSlice(), base)
	return stat, pValue, live.Total, true
}

// DriftMonitor builds a model-staleness monitor (drift.NewMonitor) whose
// reference is the deployed model's scores of the healthy full-width
// rows. It scores them on a fresh detector over the deployed artifact:
// the same scores, recorded in that detector's sketch, so the live
// sketch ScoreShift tests holds served traffic only.
func (p *Prodigy) DriftMonitor(healthy *mat.Matrix, window int, cfg drift.Config) (*drift.Monitor, error) {
	det, err := p.Artifact().Detector()
	if err != nil {
		return nil, err
	}
	return drift.NewMonitor(det.Scores(healthy), window, cfg)
}

// deploy installs a detector with its extraction plan and publishes the
// snapshot's metadata.
func (p *Prodigy) deploy(det *pipeline.AnomalyDetector) {
	p.deployed.Store(newSnapshot(det, p.Cfg.catalog()))
	modelThreshold.Set(det.Threshold())
	modelFeatures.Set(float64(len(det.Artifact().FullFeatureNames)))
}

// Snapshot returns the deployed model snapshot, or nil while untrained.
// Everything read through one Snapshot belongs to one deployment.
func (p *Prodigy) Snapshot() *Snapshot { return p.deployed.Load() }

// New returns an untrained Prodigy with the given configuration.
func New(cfg Config) *Prodigy { return &Prodigy{Cfg: cfg} }

// Fit trains the pipeline: Chi-square selection on selectionSet (needs both
// classes; nil reuses train, which then must contain a few labeled
// anomalies), then VAE training on the healthy samples of train.
func (p *Prodigy) Fit(train, selectionSet *pipeline.Dataset) error {
	return p.FitWithSelection(train, selectionSet, nil)
}

// FitWithSelection is Fit with an optional precomputed feature selection
// (reused across cross-validation folds).
func (p *Prodigy) FitWithSelection(train, selectionSet *pipeline.Dataset, sel *featsel.Selection) error {
	if train == nil || train.Len() == 0 {
		return errors.New("core: empty training dataset")
	}
	if selectionSet == nil {
		selectionSet = train
	}
	trainer := &pipeline.ModelTrainer{
		Cfg: p.Cfg.Trainer,
		NewModel: func(inputDim int) (pipeline.Model, error) {
			cfg := p.Cfg.VAE
			cfg.InputDim = inputDim
			return pipeline.NewVAEModel(cfg)
		},
	}
	artifact, err := trainer.Train(train, selectionSet, sel)
	if err != nil {
		return err
	}
	artifact.CatalogTier = int(p.Cfg.catalog().MaxTier)
	artifact.TrimSeconds = p.Cfg.TrimSeconds
	det, err := artifact.Detector()
	if err != nil {
		return err
	}
	healthy := train.Subset(train.HealthyIndices())
	p.healthyTrain.Store(healthy.X)
	p.deploy(det)
	return nil
}

// FitEnsemble trains and deploys the budgeted cascade of
// internal/ensemble instead of the solo VAE: the fleet declared in cfg
// trains concurrently under this instance's Trainer settings, so the
// cascade's VAE member is bit-identical to what Fit would deploy.
// newMember may override fleet-member construction per kind; nil (or a
// (nil, nil) return) falls back to this config's VAE, USAD defaults at
// the selected width, and the baseline defaults of pipeline.
func (p *Prodigy) FitEnsemble(train, selectionSet *pipeline.Dataset, cfg ensemble.Config,
	newMember func(kind string, inputDim int) (pipeline.Model, error)) error {
	if train == nil || train.Len() == 0 {
		return errors.New("core: empty training dataset")
	}
	if selectionSet == nil {
		selectionSet = train
	}
	member := func(kind string, inputDim int) (pipeline.Model, error) {
		if newMember != nil {
			m, err := newMember(kind, inputDim)
			if err != nil || m != nil {
				return m, err
			}
		}
		switch kind {
		case "vae":
			vcfg := p.Cfg.VAE
			vcfg.InputDim = inputDim
			return pipeline.NewVAEModel(vcfg)
		case "usad":
			return pipeline.NewUSADModel(usad.DefaultConfig(inputDim))
		}
		return nil, nil // pipeline.NewModelOfKind handles the baselines
	}
	artifact, err := ensemble.Train(ensemble.TrainOptions{
		Cfg:       cfg,
		Trainer:   p.Cfg.Trainer,
		NewMember: member,
		Train:     train,
		Select:    selectionSet,
	})
	if err != nil {
		return err
	}
	artifact.CatalogTier = int(p.Cfg.catalog().MaxTier)
	artifact.TrimSeconds = p.Cfg.TrimSeconds
	det, err := artifact.Detector()
	if err != nil {
		return err
	}
	healthy := train.Subset(train.HealthyIndices())
	p.healthyTrain.Store(healthy.X)
	p.deploy(det)
	return nil
}

// Trained reports whether Fit has completed.
func (p *Prodigy) Trained() bool { return p.deployed.Load() != nil }

// Scores returns raw anomaly scores (reconstruction MAE).
func (p *Prodigy) Scores(xFull *mat.Matrix) []float64 {
	return p.det().Scores(xFull)
}

// Threshold returns the current decision threshold.
func (p *Prodigy) Threshold() float64 {
	return p.det().Threshold()
}

// TuneThreshold sweeps thresholds over the given scored set and adopts the
// best macro-F1 threshold (see sweepThreshold). Deployment-time only: it
// mutates the live threshold, so do not race it against concurrent
// scoring.
func (p *Prodigy) TuneThreshold(ds *pipeline.Dataset) float64 {
	det := p.det()
	best := sweepThreshold(det.Scores(ds.X), ds.Labels())
	det.SetThreshold(best)
	modelThreshold.Set(best)
	return best
}

// sweepThreshold is the §5.4.4 sweep: 0.001 increments from 0 to the top
// of the observed score range (reconstruction errors live in [0, 1], the
// cascade ensemble's fleet band reaches 2), keeping the best macro-F1
// threshold. Only finite scores set the top — one +Inf score would make
// the sweep endless — while non-finite rows still count in every F1.
func sweepThreshold(scores []float64, truth []int) float64 {
	hi := 1.0
	for _, s := range scores {
		if s > hi && !math.IsInf(s, 1) {
			hi = s
		}
	}
	best, _ := eval.BestThreshold(scores, truth, 0, hi, 0.001)
	return best
}

// ModelKind reports the deployed artifact's model kind ("vae",
// "ensemble", ...), or "" before Fit/Load.
func (p *Prodigy) ModelKind() string {
	if d := p.deployed.Load(); d != nil {
		return d.det.Artifact().ModelKind
	}
	return ""
}

// Evaluate runs detection over a labeled dataset and returns the confusion
// matrix.
func (p *Prodigy) Evaluate(ds *pipeline.Dataset) *eval.Confusion {
	preds, _, _ := p.DetectBatch(ds.X)
	return eval.Evaluate(preds, ds.Labels())
}

// NodePrediction is one row of the job-level dashboard (§4.3): a binary
// prediction per compute node of the job.
type NodePrediction struct {
	Component int     `json:"component_id"`
	Anomalous bool    `json:"anomalous"`
	Score     float64 `json:"score"`
	Threshold float64 `json:"threshold"`
}

// AnalyzeJob runs the full prediction pipeline of Figure 4 for one job ID:
// query the store, preprocess, extract features, detect per node.
// Extraction runs only the (metric, extractor) cells the deployed
// selection reads (see Snapshot); the verdicts are bit-identical to
// scoring the fully extracted vector.
func (p *Prodigy) AnalyzeJob(store *dsos.Store, jobID int64) ([]NodePrediction, error) {
	row := rowPool.Get().(*mat.Matrix)
	defer rowPool.Put(row)
	return p.analyzeJob(row, store, jobID)
}

func (p *Prodigy) analyzeJob(row *mat.Matrix, store *dsos.Store, jobID int64) ([]NodePrediction, error) {
	ctx, span := obs.StartSpan(context.Background(), "core.analyze_job")
	defer span.End()
	// One atomic load per request: every node of the job is scored against
	// the same detector and plan even if a Fit lands mid-analysis.
	dep := p.live()
	gen := pipeline.NewDataGenerator(store)
	if p.Cfg.TrimSeconds > 0 {
		gen.TrimSeconds = p.Cfg.TrimSeconds
	}
	// Table assembly runs out of a pooled arena: timestamp axes, metric
	// columns and table shells are slab-carved and recycled wholesale when
	// the request finishes, so steady-state analysis allocates only the
	// result slice and the per-job table map.
	arena := timeseries.GetArena()
	defer timeseries.PutArena(arena)
	_, qspan := obs.StartSpan(ctx, "query")
	tables, err := gen.JobTablesInto(arena, jobID, dep.reads)
	qspan.End()
	if err != nil {
		return nil, err
	}
	_, sspan := obs.StartSpan(ctx, "extract_score")
	defer sspan.End()
	ws := features.GetWorkspace()
	defer features.PutWorkspace(ws)
	out := make([]NodePrediction, 0, len(tables))
	for _, comp := range store.Components(jobID) {
		tb, ok := tables[comp]
		if !ok {
			continue
		}
		pred, err := dep.analyzeNode(row, ws, comp, tb)
		if err != nil {
			return nil, fmt.Errorf("core: job %d %w", jobID, err)
		}
		out = append(out, pred)
	}
	return out, nil
}

// rowPool recycles the 1×w feature rows job analysis extracts every node
// of a job into. A pooled row arrives dirty.
var rowPool = sync.Pool{New: func() any { return new(mat.Matrix) }}

// resizeRow makes m a 1×w row, reusing its storage; the contents are
// unspecified.
func resizeRow(m *mat.Matrix, w int) {
	if cap(m.Data) < w {
		m.Data = make([]float64, w)
	}
	*m = mat.Matrix{Rows: 1, Cols: w, Data: m.Data[:w]}
}

// analyzeNode extracts the planned cells of one node's preprocessed table
// into row and scores it. Cells outside the plan keep whatever the row
// held: the detector gathers only the selected columns, and every one of
// those lies inside the plan. Every planned position of the table must
// hold the gathered metric the model was trained on there: a node whose
// schema has the same width but other names fails rather than feeding one
// metric's features to another's weights.
func (d *Snapshot) analyzeNode(row *mat.Matrix, ws *features.Workspace, comp int, tb *timeseries.Table) (NodePrediction, error) {
	width := len(d.det.Artifact().FullFeatureNames)
	if n := tb.NumMetrics() * d.cat.NumFeaturesPerSeries(); n != width {
		return NodePrediction{}, fmt.Errorf("component %d yields %d features, model expects %d", comp, n, width)
	}
	if d.plan == nil {
		return NodePrediction{}, fmt.Errorf("component %d: the model's feature selection does not fit its %d-wide feature space", comp, width)
	}
	for k, mi := range d.plan.Metrics {
		m := tb.Order[mi]
		if _, ok := tb.Columns[m]; !ok || m != d.metrics[k] {
			return NodePrediction{}, fmt.Errorf("component %d: metric %d is %q, model reads %q", comp, mi, m, d.metrics[k])
		}
	}
	resizeRow(row, width)
	d.cat.ExtractPlanInto(row.Data, tb, d.plan, ws)
	preds, scores := d.det.Predict(row)
	return NodePrediction{
		Component: comp,
		Anomalous: preds[0] == 1,
		Score:     scores[0],
		Threshold: d.det.Threshold(),
	}, nil
}

// Explain produces a CoMTE counterfactual explanation for sample idx of ds
// (which must be predicted anomalous) using OptimizedSearch.
func (p *Prodigy) Explain(ds *pipeline.Dataset, idx int) (*comte.Explanation, error) {
	det := p.det()
	if idx < 0 || idx >= ds.Len() {
		return nil, fmt.Errorf("core: sample index %d out of range", idx)
	}
	explainer, err := comte.New(det, p.healthyTrain.Load(), det.Artifact().FullFeatureNames, p.Cfg.Explain)
	if err != nil {
		return nil, err
	}
	x := ds.X.RowCopy(idx)
	expl, searchErr := explainer.OptimizedSearch(x)
	if expl != nil {
		// Present the most influential metrics first, as the deployed
		// dashboard does (§6.2's "top two metrics CoMTE returned").
		expl.Metrics = explainer.RankByImpact(x, expl)
	}
	return expl, searchErr
}

// JobNodeVector runs the preprocessing + extraction path for one compute
// node of a job and returns its full feature vector — the input every
// downstream analysis (detection, explanation, diagnosis) consumes.
func (p *Prodigy) JobNodeVector(store *dsos.Store, jobID int64, component int) ([]float64, error) {
	names := p.det().Artifact().FullFeatureNames
	gen := pipeline.NewDataGenerator(store)
	if p.Cfg.TrimSeconds > 0 {
		gen.TrimSeconds = p.Cfg.TrimSeconds
	}
	arena := timeseries.GetArena()
	defer timeseries.PutArena(arena)
	tables, err := gen.JobTablesInto(arena, jobID, nil)
	if err != nil {
		return nil, err
	}
	tb, ok := tables[component]
	if !ok {
		return nil, fmt.Errorf("core: job %d has no data for component %d", jobID, component)
	}
	cat := p.Cfg.catalog()
	if n := tb.NumMetrics() * cat.NumFeaturesPerSeries(); n != len(names) {
		return nil, fmt.Errorf("core: job %d component %d yields %d features, model expects %d",
			jobID, component, n, len(names))
	}
	vec := make([]float64, len(names))
	cat.ExtractTableInto(vec, tb)
	return vec, nil
}

// ExplainJobNode runs the full Figure 4 explanation path for one compute
// node of a job: query + preprocess + extract, verify the node is predicted
// anomalous, then search for a CoMTE counterfactual.
func (p *Prodigy) ExplainJobNode(store *dsos.Store, jobID int64, component int) (*comte.Explanation, error) {
	_, span := obs.StartSpan(context.Background(), "core.explain_job_node")
	defer span.End()
	det := p.det()
	pool := p.healthyTrain.Load()
	if pool == nil {
		return nil, errors.New("core: explanation pool not set (call SetExplainPool after Load)")
	}
	vec, err := p.JobNodeVector(store, jobID, component)
	if err != nil {
		return nil, err
	}
	explainer, err := comte.New(det, pool, det.Artifact().FullFeatureNames, p.Cfg.Explain)
	if err != nil {
		return nil, err
	}
	expl, searchErr := explainer.OptimizedSearch(vec)
	if expl != nil {
		expl.Metrics = explainer.RankByImpact(vec, expl)
	}
	return expl, searchErr
}

// Save persists the trained artifact to path.
func (p *Prodigy) Save(path string) error {
	return p.det().Artifact().Save(path)
}

// Load restores a trained pipeline saved by Save. The artifact carries the
// extraction settings (catalog tier, trim), which override cfg so the
// loaded model reproduces its training-time pipeline exactly. The CoMTE
// distractor pool is not persisted; Explain requires SetExplainPool after
// Load.
func Load(path string, cfg Config) (*Prodigy, error) {
	artifact, err := pipeline.LoadArtifact(path)
	if err != nil {
		return nil, err
	}
	return FromArtifact(artifact, cfg)
}

// SetExplainPool provides the healthy training pool needed by Explain on a
// loaded model.
func (p *Prodigy) SetExplainPool(healthy *mat.Matrix) { p.healthyTrain.Store(healthy) }

// Artifact returns the deployed model artifact: what Save persists and
// FromArtifact builds a Prodigy from.
func (p *Prodigy) Artifact() *pipeline.Artifact { return p.det().Artifact() }

// FromArtifact builds a trained Prodigy directly from an in-memory
// artifact — Load without the filesystem round-trip. As with Load, the
// artifact's extraction settings override cfg, and the CoMTE distractor
// pool must be supplied via SetExplainPool.
func FromArtifact(artifact *pipeline.Artifact, cfg Config) (*Prodigy, error) {
	det, err := artifact.Detector()
	if err != nil {
		return nil, err
	}
	cfg.Catalog = features.New(features.Tier(artifact.CatalogTier))
	cfg.TrimSeconds = artifact.TrimSeconds
	p := &Prodigy{Cfg: cfg}
	p.deploy(det)
	return p, nil
}

// DetectBatch scores a batch against one atomically-loaded model snapshot,
// returning the predictions and scores together with the threshold they
// were judged against — one detector load for all three, so the verdict
// is self-consistent even when a Fit lands mid-flight.
func (p *Prodigy) DetectBatch(xFull *mat.Matrix) (preds []int, scores []float64, threshold float64) {
	det := p.det()
	preds, scores = det.Predict(xFull)
	return preds, scores, det.Threshold()
}

// DetectVector classifies a single full-feature-space vector — the
// streaming entry point used by the online-detection extension.
func (p *Prodigy) DetectVector(vec []float64) (anomalous bool, score float64) {
	preds, scores := p.det().Predict(matrixFromVec(vec))
	return preds[0] == 1, scores[0]
}

// FeatureNames returns the full extracted-feature names the deployed model
// was trained against. The names travel with the artifact, so a reader
// pairing FeatureNames with a scoring call sees a consistent schema.
func (p *Prodigy) FeatureNames() []string {
	if d := p.deployed.Load(); d != nil {
		return d.det.Artifact().FullFeatureNames
	}
	return nil
}

// matrixFromVec wraps one feature vector as a 1×n matrix.
func matrixFromVec(vec []float64) *mat.Matrix { return mat.NewFromData(1, len(vec), vec) }

// det returns the deployed detector, panicking on an untrained pipeline —
// the same contract mustBeTrained enforced, now one atomic load.
func (p *Prodigy) det() *pipeline.AnomalyDetector { return p.live().det }

// live returns the deployed model snapshot, panicking on an untrained
// pipeline.
func (p *Prodigy) live() *Snapshot {
	d := p.deployed.Load()
	if d == nil {
		panic("core: Prodigy used before Fit/Load")
	}
	return d
}

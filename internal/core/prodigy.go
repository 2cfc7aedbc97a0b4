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
// snapshot most recently deployed in this process (Fit, Swap or Load —
// with several Prodigy instances the last deployment wins, which matches
// the one-deployed-model-per-process serving shape of §4). The swap
// counter is the retrain/redeploy event stream the drift story hangs off.
var (
	modelSwaps = obs.Default.NewCounter("prodigy_model_swaps_total",
		"Hot model swaps deployed through Prodigy.Swap.")
	modelGeneration = obs.Default.NewGauge("prodigy_model_generation",
		"Generation of the deployed model artifact; Fit, Swap and Load each advance it.")
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
// goroutines may score concurrently while Fit or Swap installs a new
// artifact: readers in flight finish against the old model, later readers
// see the new one, and nobody stalls. Fit, TuneThreshold and SetExplainPool
// are deployment-time operations — run them from one goroutine.
type Prodigy struct {
	Cfg Config
	// deployed is the live model snapshot: the detector together with the
	// extraction plan compiled from its selection, published as one.
	deployed atomic.Pointer[deployment]
	// healthyTrain retains the healthy training pool (full feature space)
	// for CoMTE distractors.
	healthyTrain atomic.Pointer[mat.Matrix]
	// generation counts deployments into this instance (Fit, Swap, Load);
	// /api/health reports it so operators can tell which artifact answered.
	generation atomic.Uint64
	// baseline is the last-known-good score-distribution snapshot the
	// score-shift alert compares live scoring against (see adoptBaseline).
	baseline atomic.Pointer[obs.SketchSnapshot]
}

// deployment is one deployed model snapshot. AnalyzeJob extracts only the
// (metric, extractor) cells the detector's selection reads, so the plan
// must always describe the detector it is published with: a Swap to an
// artifact with another selection replaces both in one atomic store.
type deployment struct {
	det *pipeline.AnomalyDetector
	// cat is the catalog the plan was compiled against.
	cat *features.Catalog
	// plan is nil when the artifact's feature space does not fit cat; job
	// analysis then fails its width check before it would need one.
	plan *features.Plan
}

// newDeployment compiles the extraction plan of det's selection over cat.
func newDeployment(det *pipeline.AnomalyDetector, cat *features.Catalog) *deployment {
	d := &deployment{det: det, cat: cat}
	a := det.Artifact()
	per, width := cat.NumFeaturesPerSeries(), len(a.FullFeatureNames)
	if a.Selection != nil && per > 0 && width%per == 0 {
		if plan, err := cat.Plan(a.Selection.Indices, width/per); err == nil {
			d.plan = plan
		}
	}
	return d
}

// Baseline-adoption gates: a deployment's outgoing score distribution
// becomes the new baseline only when it carries enough mass to mean
// something and does not itself look shifted against the current
// baseline — so swapping *away* from a degenerate model never launders
// its distribution into the reference.
const (
	// baselineMinObservations an outgoing sketch needs before its
	// snapshot is eligible as a baseline.
	baselineMinObservations = 64
	// baselineAdoptMaxKS is the largest live-vs-baseline KS statistic at
	// which the outgoing distribution still counts as "good" and
	// refreshes the baseline (keeping it current against benign drift).
	baselineAdoptMaxKS = 0.2
)

// adoptBaseline considers the outgoing detector's score distribution as
// the new baseline at deployment time. Called from deploy, before the
// new detector is installed.
func (p *Prodigy) adoptBaseline(outgoing *pipeline.AnomalyDetector) {
	if outgoing == nil {
		return
	}
	snap := outgoing.ScoreSketch().Snapshot()
	if snap.Total < baselineMinObservations {
		return
	}
	base := p.baseline.Load()
	if base != nil {
		if stat, _ := drift.KSFromCounts(snap.CountsSlice(), base.CountsSlice()); stat >= baselineAdoptMaxKS {
			// The outgoing distribution is itself shifted — keep the
			// last-known-good reference instead.
			return
		}
	}
	p.baseline.Store(snap)
}

// ScoreShift tests the live score distribution of the deployed detector
// against the baseline snapshot captured at deployment: the KS statistic,
// its p-value, and how many live observations back the verdict. ok is
// false until both a baseline and a deployed detector exist — alert rules
// treat that as "not evaluable", never as "no shift".
func (p *Prodigy) ScoreShift() (stat, pValue float64, n uint64, ok bool) {
	dep := p.deployed.Load()
	base := p.baseline.Load()
	if dep == nil || base == nil {
		return 0, 1, 0, false
	}
	live := dep.det.ScoreSketch().Snapshot()
	stat, pValue = drift.KSFromCounts(live.CountsSlice(), base.CountsSlice())
	return stat, pValue, live.Total, true
}

// deploy installs a detector with its extraction plan and publishes the
// snapshot's metadata. The outgoing detector's score distribution is
// considered as the new score-shift baseline first (last-known-good
// semantics, see adoptBaseline).
func (p *Prodigy) deploy(det *pipeline.AnomalyDetector) {
	if cur := p.deployed.Load(); cur != nil {
		p.adoptBaseline(cur.det)
	}
	p.deployed.Store(newDeployment(det, p.Cfg.catalog()))
	modelGeneration.Set(float64(p.generation.Add(1)))
	modelThreshold.Set(det.Threshold())
	modelFeatures.Set(float64(len(det.Artifact().FullFeatureNames)))
}

// Generation returns how many model deployments (Fit, Swap, Load) this
// instance has seen; 0 means untrained.
func (p *Prodigy) Generation() uint64 { return p.generation.Load() }

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

// Swap atomically deploys a retrained artifact, replacing the current model
// without stalling concurrent readers: requests in flight finish against
// the old model, later requests score with the new one. The artifact must
// carry the same extraction settings as the deployed one — a hot swap
// replaces weights and threshold, not the feature pipeline.
func (p *Prodigy) Swap(artifact *pipeline.Artifact) error {
	det, err := artifact.Detector()
	if err != nil {
		return err
	}
	if cur := p.deployed.Load(); cur != nil {
		old := cur.det.Artifact()
		if artifact.CatalogTier != old.CatalogTier || artifact.TrimSeconds != old.TrimSeconds {
			return fmt.Errorf("core: hot swap changes extraction settings (tier %d→%d, trim %d→%d); redeploy instead",
				old.CatalogTier, artifact.CatalogTier, old.TrimSeconds, artifact.TrimSeconds)
		}
	}
	p.deploy(det)
	modelSwaps.Inc()
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
// selection reads (see deployment); the verdicts are bit-identical to
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
	// the same detector and plan even if a hot swap lands mid-analysis.
	dep := p.snapshot()
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
	tables, err := gen.JobTablesInto(arena, jobID)
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
// those lies inside the plan.
func (d *deployment) analyzeNode(row *mat.Matrix, ws *features.Workspace, comp int, tb *timeseries.Table) (NodePrediction, error) {
	width := len(d.det.Artifact().FullFeatureNames)
	if n := tb.NumMetrics() * d.cat.NumFeaturesPerSeries(); n != width {
		return NodePrediction{}, fmt.Errorf("component %d yields %d features, model expects %d", comp, n, width)
	}
	if d.plan == nil {
		return NodePrediction{}, fmt.Errorf("component %d: the model's feature selection does not fit its %d-wide feature space", comp, width)
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
	tables, err := gen.JobTablesInto(arena, jobID)
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

// ExplainPool returns the healthy training pool backing Explain, or nil if
// none was set. Replica constructors share one pool across instances — it
// is only ever read.
func (p *Prodigy) ExplainPool() *mat.Matrix { return p.healthyTrain.Load() }

// Artifact returns the deployed model artifact — the unit of snapshot
// replication: a serving tier hands it to FromArtifact to stamp out
// replicas, and to Swap to roll a retrain across them.
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
// were judged against — one detector load for all three, so a serving tier
// reports a self-consistent verdict even when a hot swap lands mid-flight.
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
func (p *Prodigy) det() *pipeline.AnomalyDetector { return p.snapshot().det }

// snapshot returns the deployed model snapshot, panicking on an untrained
// pipeline.
func (p *Prodigy) snapshot() *deployment {
	d := p.deployed.Load()
	if d == nil {
		panic("core: Prodigy used before Fit/Load")
	}
	return d
}

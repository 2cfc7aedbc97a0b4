// Package pipeline implements the data processing and training pipeline of
// the paper's deployment architecture (§4.2): DataGenerator (query +
// preprocessing), DataPipeline (feature extraction + scaling), ModelTrainer
// (training + artifact persistence) and AnomalyDetector (inference). The
// classes mirror Figure 3 and Figure 4 of the paper.
package pipeline

import (
	"fmt"
	"runtime"
	"strings"
	"sync"

	"prodigy/internal/dsos"
	"prodigy/internal/features"
	"prodigy/internal/ldms"
	"prodigy/internal/mat"
	"prodigy/internal/timeseries"
)

// Labels for samples. A sample is one (job, component) pair reduced to a
// feature vector (paper §1, footnote 3).
const (
	Healthy   = 0
	Anomalous = 1
)

// SampleMeta carries the identity and ground truth of one sample.
type SampleMeta struct {
	JobID     int64  `json:"job_id"`
	Component int    `json:"component_id"`
	App       string `json:"app"`
	// Anomaly is the injected anomaly type ("none" for healthy runs).
	Anomaly string `json:"anomaly"`
	// Config is the injector configuration string (Table 2).
	Config string `json:"config"`
	Label  int    `json:"label"`
	// WindowStart marks the window origin (seconds) for window-level
	// samples produced by the online-detection extension; 0 for whole-run
	// samples.
	WindowStart int64 `json:"window_start,omitempty"`
}

// Dataset is a feature matrix with per-sample metadata.
type Dataset struct {
	FeatureNames []string
	X            *mat.Matrix
	Meta         []SampleMeta
}

// Labels returns the per-sample ground-truth labels.
func (d *Dataset) Labels() []int {
	out := make([]int, len(d.Meta))
	for i, m := range d.Meta {
		out[i] = m.Label
	}
	return out
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Meta) }

// Subset returns a dataset restricted to the given sample indices.
func (d *Dataset) Subset(idx []int) *Dataset {
	meta := make([]SampleMeta, len(idx))
	for i, j := range idx {
		meta[i] = d.Meta[j]
	}
	return &Dataset{FeatureNames: d.FeatureNames, X: d.X.SelectRows(idx), Meta: meta}
}

// IndicesWhere returns the indices of samples satisfying pred.
func (d *Dataset) IndicesWhere(pred func(SampleMeta) bool) []int {
	var out []int
	for i, m := range d.Meta {
		if pred(m) {
			out = append(out, i)
		}
	}
	return out
}

// HealthyIndices returns the indices of healthy samples.
func (d *Dataset) HealthyIndices() []int {
	return d.IndicesWhere(func(m SampleMeta) bool { return m.Label == Healthy })
}

// AnomalousIndices returns the indices of anomalous samples.
func (d *Dataset) AnomalousIndices() []int {
	return d.IndicesWhere(func(m SampleMeta) bool { return m.Label == Anomalous })
}

// DataGenerator performs the preprocessing of §4.2.1: query raw sampler
// data for a job, trim initialization/termination boundaries, linearly
// interpolate missing values, and first-difference accumulated counters.
type DataGenerator struct {
	Store *dsos.Store
	// TrimSeconds removes this many seconds from each end (paper: 60).
	TrimSeconds int
}

// NewDataGenerator returns a generator with the paper's 60-second trim.
func NewDataGenerator(store *dsos.Store) *DataGenerator {
	return &DataGenerator{Store: store, TrimSeconds: 60}
}

// JobTables returns the preprocessed per-component telemetry tables of a
// job, ready for feature extraction.
func (g *DataGenerator) JobTables(jobID int64) (map[int]*timeseries.Table, error) {
	return g.JobTablesInto(nil, jobID, nil)
}

// JobTablesInto is JobTables with table storage carved out of the arena
// (nil falls back to plain allocation) and only the metrics reads names
// gathered (nil gathers all; see dsos.Store.QueryJobPrunedInto): the
// per-request serving path pools arenas and reads what its model reads.
// The preprocessing steps (interpolation, differencing, trimming, column
// sort) all run in place, so only the query/align stage touches the
// arena, and interpolation visits only the columns the gather found gaps
// in.
func (g *DataGenerator) JobTablesInto(a *timeseries.Arena, jobID int64, reads dsos.ReadSet) (map[int]*timeseries.Table, error) {
	raw, err := g.Store.QueryJobPrunedInto(a, jobID, reads)
	if err != nil {
		return nil, err
	}
	acc := ldms.AccumulatedNames()
	for _, tb := range raw {
		tb.InterpolateAll()
		tb.DiffColumns(acc)
		tb.TrimBoundary(g.TrimSeconds)
		tb.SortColumns()
	}
	return raw, nil
}

// DataPipeline performs feature extraction (§4.2.1's FeatureExtractor): it
// turns preprocessed tables into fixed-width feature vectors with stable
// names.
type DataPipeline struct {
	Catalog *features.Catalog
}

// NewDataPipeline returns a pipeline over the default (efficient) catalog.
func NewDataPipeline() *DataPipeline {
	return &DataPipeline{Catalog: features.Default()}
}

// jobSpec pairs a job ID with its ground truth for dataset assembly.
type jobSpec struct {
	jobID int64
	app   string
	// perNode ground truth; nodes absent are healthy.
	anomalies map[int]anomalyTruth
}

type anomalyTruth struct {
	name   string
	config string
}

// DatasetBuilder assembles labeled datasets from a store, extracting
// samples in parallel.
type DatasetBuilder struct {
	Gen  *DataGenerator
	Pipe *DataPipeline

	mu    sync.Mutex
	specs []jobSpec
	// Feature-name cache: the name list depends only on (catalog, metric
	// order) and dominated per-build allocations before it was cached.
	namesCat   *features.Catalog
	namesKey   string
	namesCache []string
	// arenas are the builder's own query/align arenas, one per collect
	// worker, reused across its builds. Each one ends a build holding its
	// share of the whole campaign's telemetry, so they stay with the
	// builder rather than joining the request path's arena pool.
	arenas []*timeseries.Arena
}

// NewDatasetBuilder wires a generator and pipeline over one store.
func NewDatasetBuilder(store *dsos.Store) *DatasetBuilder {
	return &DatasetBuilder{Gen: NewDataGenerator(store), Pipe: NewDataPipeline()}
}

// AddJob registers a job's ground truth: the application it ran and, per
// anomalous node, the injected anomaly name and config.
func (b *DatasetBuilder) AddJob(jobID int64, app string, anomalies map[int][2]string) {
	spec := jobSpec{jobID: jobID, app: app, anomalies: make(map[int]anomalyTruth)}
	for node, a := range anomalies {
		spec.anomalies[node] = anomalyTruth{name: a[0], config: a[1]}
	}
	b.mu.Lock()
	b.specs = append(b.specs, spec)
	b.mu.Unlock()
}

// task pairs one sample's metadata with its preprocessed table.
type task struct {
	meta  SampleMeta
	table *timeseries.Table
}

// collectTasks gathers the preprocessed per-node tables of every
// registered job. Per-job preprocessing (query, interpolation,
// differencing, trimming) fans out across a bounded worker pool — it
// dominates end-to-end dataset construction on large campaigns — while
// the result keeps the deterministic (job registration, component) order
// of the serial loop: workers fill per-spec slots that are concatenated
// in spec order afterwards.
//
// Each worker carves its query/align storage out of one of the builder's
// arenas (DESIGN.md §15), so the per-column allocations that used to
// dominate dataset builds disappear. The returned tables reference arena
// memory: callers must hand the arenas back with releaseArenas only after
// they are done with every table — Build/BuildPartitioned release them
// after feature extraction.
func (b *DatasetBuilder) collectTasks() ([]task, []*timeseries.Arena, error) {
	b.mu.Lock()
	specs := make([]jobSpec, len(b.specs))
	copy(specs, b.specs)
	// Check the arenas out: a concurrent build on the same builder finds
	// none and carves from fresh ones.
	arenas := b.arenas
	b.arenas = nil
	b.mu.Unlock()

	perSpec := make([][]task, len(specs))
	errs := make([]error, len(specs))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(specs) {
		workers = len(specs)
	}
	if workers < 1 {
		workers = 1
	}
	for len(arenas) < workers {
		arenas = append(arenas, new(timeseries.Arena))
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		arenas[w].Reset()
		wg.Add(1)
		go func(arena *timeseries.Arena) {
			defer wg.Done()
			for i := range jobs {
				spec := specs[i]
				tables, err := b.Gen.JobTablesInto(arena, spec.jobID, nil)
				if err != nil {
					errs[i] = fmt.Errorf("pipeline: job %d: %w", spec.jobID, err)
					continue
				}
				comps := b.Gen.Store.Components(spec.jobID)
				for _, comp := range comps {
					tb, ok := tables[comp]
					if !ok {
						continue
					}
					meta := SampleMeta{JobID: spec.jobID, Component: comp, App: spec.app, Anomaly: "none", Label: Healthy}
					if truth, anom := spec.anomalies[comp]; anom {
						meta.Anomaly = truth.name
						meta.Config = truth.config
						meta.Label = Anomalous
					}
					perSpec[i] = append(perSpec[i], task{meta: meta, table: tb})
				}
			}
		}(arenas[w])
	}
	for i := range specs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	var tasks []task
	for i, ts := range perSpec {
		if errs[i] != nil {
			b.releaseArenas(arenas)
			return nil, nil, errs[i]
		}
		tasks = append(tasks, ts...)
	}
	if len(tasks) == 0 {
		b.releaseArenas(arenas)
		return nil, nil, fmt.Errorf("pipeline: no samples to build")
	}
	return tasks, arenas, nil
}

// releaseArenas hands the build arenas back to the builder once every
// table carved from them is dead; the next build resets and reuses them.
func (b *DatasetBuilder) releaseArenas(arenas []*timeseries.Arena) {
	b.mu.Lock()
	if b.arenas == nil {
		b.arenas = arenas
	}
	b.mu.Unlock()
}

// featureNames returns the qualified feature names for a metric order,
// reusing the cached list when the catalog and schema are unchanged —
// repeated builds (folds, benchmarks) otherwise re-allocate thousands
// of identical strings.
func (b *DatasetBuilder) featureNames(cat *features.Catalog, order []string) []string {
	key := strings.Join(order, "\x1f")
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.namesCat == cat && b.namesKey == key {
		return b.namesCache
	}
	names := cat.TableFeatureNames(order)
	b.namesCat, b.namesKey, b.namesCache = cat, key, names
	return names
}

// NodeClass identifies a node's metric-schema class for heterogeneous
// systems: "gpu" for nodes reporting the dcgm sampler, "cpu" otherwise.
func NodeClass(tb *timeseries.Table) string {
	for _, m := range tb.Order {
		if strings.HasSuffix(m, "::dcgm") {
			return "gpu"
		}
	}
	return "cpu"
}

// Build extracts every registered job into one dataset. Samples appear in
// (job registration, component) order. All nodes must share one metric
// schema; for mixed CPU/GPU campaigns use BuildPartitioned.
func (b *DatasetBuilder) Build() (*Dataset, error) {
	tasks, arenas, err := b.collectTasks()
	if err != nil {
		return nil, err
	}
	// The dataset matrix is fully materialized by extract; the
	// arena-backed tables are dead afterwards.
	defer b.releaseArenas(arenas)
	return b.extract(tasks)
}

// BuildPartitioned extracts every registered job into one dataset per node
// class ("cpu", "gpu") — the per-class models the paper's §7 future work
// calls for on heterogeneous systems, where GPU and CPU nodes produce
// different metric sets.
func (b *DatasetBuilder) BuildPartitioned() (map[string]*Dataset, error) {
	tasks, arenas, err := b.collectTasks()
	if err != nil {
		return nil, err
	}
	defer b.releaseArenas(arenas)
	byClass := map[string][]task{}
	for _, t := range tasks {
		c := NodeClass(t.table)
		byClass[c] = append(byClass[c], t)
	}
	out := make(map[string]*Dataset, len(byClass))
	for c, ts := range byClass {
		ds, err := b.extract(ts)
		if err != nil {
			return nil, fmt.Errorf("pipeline: class %s: %w", c, err)
		}
		out[c] = ds
	}
	return out, nil
}

// extract runs feature extraction over tasks in parallel and assembles the
// dataset. Workers write each sample's features directly into its matrix
// row — no per-sample vectors are allocated — and tasks are
// range-partitioned so the row contents are deterministic for any worker
// count. Parallelism lives here, across samples; each worker extracts its
// tables serially with one pooled workspace.
func (b *DatasetBuilder) extract(tasks []task) (*Dataset, error) {
	cat := b.Pipe.Catalog
	per := cat.NumFeaturesPerSeries()
	width := tasks[0].table.NumMetrics() * per
	for i, t := range tasks {
		if n := t.table.NumMetrics() * per; n != width {
			return nil, fmt.Errorf("pipeline: sample %d has %d features, expected %d (mismatched metric schemas across jobs)", i, n, width)
		}
	}
	names := b.featureNames(cat, tasks[0].table.Order)
	x := mat.New(len(tasks), width)
	workers := runtime.GOMAXPROCS(0)
	if workers > len(tasks) {
		workers = len(tasks)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*len(tasks)/workers, (w+1)*len(tasks)/workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			ws := features.GetWorkspace()
			defer features.PutWorkspace(ws)
			for i := lo; i < hi; i++ {
				tb := tasks[i].table
				row := x.Row(i)
				for mi, m := range tb.Order {
					cat.ExtractSeriesInto(row[mi*per:(mi+1)*per], tb.Columns[m], ws)
				}
			}
		}(lo, hi)
	}
	wg.Wait()

	meta := make([]SampleMeta, len(tasks))
	for i := range tasks {
		meta[i] = tasks[i].meta
	}
	return &Dataset{FeatureNames: names, X: x, Meta: meta}, nil
}

// Package online adds streaming anomaly detection on top of Prodigy: the
// operational-data-analytics direction of §2.2 ("real-time system
// insights") taken to its conclusion. Instead of waiting for a job to
// finish, a Detector consumes the LDMS row stream directly (it implements
// ldms.Sink, so it can sit next to — or instead of — the DSOS store in the
// aggregation fan-in), maintains a sliding window per (job, component),
// and emits a prediction event every stride seconds.
//
// Window-level feature vectors are distributed differently from whole-run
// vectors (sums scale with length, trends shorten), so the model must be
// trained on windows too: BuildWindowDataset slices stored telemetry into
// the same windows the Detector will see.
package online

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"prodigy/internal/dsos"
	"prodigy/internal/features"
	"prodigy/internal/ldms"
	"prodigy/internal/mat"
	"prodigy/internal/obs"
	"prodigy/internal/pipeline"
	"prodigy/internal/timeseries"
)

// Streaming telemetry (DESIGN.md §8): ingestion lag is measured on the
// stream's own clock (row timestamps vs the per-stream watermark), so it
// reports how out-of-order the aggregation fan-in delivers rows; buffer
// gauges expose window-assembly depth; the dropped-window counter makes
// silently skipped predictions (sparse or schema-mismatched windows)
// visible instead of indistinguishable from healthy silence.
var (
	ingestLag = obs.Default.NewHistogram("online_ingest_lag_seconds",
		"How far behind its stream's watermark each ingested row arrives (stream-clock seconds).", obs.LagBuckets)
	ingestRows = obs.Default.NewCounter("online_ingest_rows_total",
		"Rows ingested by the streaming detector.")
	bufferRows = obs.Default.NewGauge("online_buffer_rows",
		"Rows buffered across all streams awaiting window assembly.")
	bufferStreams = obs.Default.NewGauge("online_buffer_streams",
		"Distinct (job, component) streams currently buffered.")
	windowsScored = obs.Default.NewCounter("online_windows_scored_total",
		"Windows assembled and scored.")
	windowsDropped = obs.Default.NewCounterVec("online_windows_dropped_total",
		"Windows dropped before scoring, by reason (empty, sparse, schema).", "reason")
	eventsAnomalous = obs.Default.NewCounter("online_events_anomalous_total",
		"Anomalous window predictions emitted.")
)

// Event is one window-level prediction for one compute node.
type Event struct {
	JobID       int64
	Component   int
	WindowStart int64
	WindowEnd   int64
	Score       float64
	Anomalous   bool
}

// Predictor is the model contract the detector needs (satisfied by
// core.Prodigy). DetectVector must be safe for concurrent use: the
// detector calls it outside its buffer lock, possibly from many ingest
// goroutines at once.
type Predictor interface {
	DetectVector(vec []float64) (anomalous bool, score float64)
	FeatureNames() []string
}

// Config tunes the streaming detector.
type Config struct {
	// Window is the feature window length in seconds.
	Window int64
	// Stride is how far the window advances between predictions.
	Stride int64
	// Grace is how many seconds past a window's end to wait for stragglers
	// before flushing (dropped samples interpolate).
	Grace int64
	// Catalog must match the model's training catalog.
	Catalog *features.Catalog
}

// Detector is a streaming window detector. It is safe for concurrent
// Ingest calls (the LDMS aggregator contract): the buffer map is guarded
// by a mutex, while model scoring happens outside the lock through the
// stateless Predictor contract, so many nodes' windows can score in
// parallel — and concurrently with the HTTP serving layer sharing the
// same model.
type Detector struct {
	Cfg     Config
	Model   Predictor
	OnEvent func(Event)

	accumulated map[string]bool
	mu          sync.Mutex
	buffers     map[streamKey]*streamBuffer
}

type streamKey struct {
	job  int64
	comp int
}

// streamBuffer accumulates one node's rows until windows complete.
type streamBuffer struct {
	rows map[ldms.SamplerName][]ldms.Row
	// nextStart is the origin of the next window to flush.
	nextStart int64
	// watermark is the latest timestamp seen from any sampler.
	watermark int64
}

// NewDetector wires a streaming detector. onEvent is called synchronously
// from Ingest whenever a window completes; keep it fast or hand off.
func NewDetector(cfg Config, model Predictor, onEvent func(Event)) (*Detector, error) {
	if cfg.Window <= 0 || cfg.Stride <= 0 {
		return nil, fmt.Errorf("online: window %d / stride %d must be positive", cfg.Window, cfg.Stride)
	}
	if cfg.Catalog == nil {
		cfg.Catalog = features.Default()
	}
	if model == nil {
		return nil, fmt.Errorf("online: nil model")
	}
	acc := map[string]bool{}
	for _, name := range ldms.AccumulatedNames() {
		acc[name] = true
	}
	return &Detector{
		Cfg:         cfg,
		Model:       model,
		OnEvent:     onEvent,
		accumulated: acc,
		buffers:     make(map[streamKey]*streamBuffer),
	}, nil
}

// pendingWindow is an assembled window's feature vector, carried out of
// the buffer lock so the model scores it without blocking other ingests.
type pendingWindow struct {
	key        streamKey
	start, end int64
	vec        []float64
}

// Ingest implements ldms.Sink: buffer the row and flush any completed
// windows for its node. Window assembly happens under the buffer lock;
// model scoring and event delivery happen after it is released.
func (d *Detector) Ingest(r ldms.Row) {
	key := streamKey{job: r.JobID, comp: r.Component}
	d.mu.Lock()
	b, ok := d.buffers[key]
	if !ok {
		b = &streamBuffer{rows: make(map[ldms.SamplerName][]ldms.Row)}
		d.buffers[key] = b
	}
	b.rows[r.Sampler] = append(b.rows[r.Sampler], r)
	if r.Timestamp > b.watermark {
		b.watermark = r.Timestamp
	}
	ingestRows.Inc()
	ingestLag.Observe(float64(b.watermark - r.Timestamp))
	bufferRows.Add(1)
	bufferStreams.Set(float64(len(d.buffers)))
	var pending []pendingWindow
	for b.watermark >= b.nextStart+d.Cfg.Window+d.Cfg.Grace {
		if pw, ok := d.assembleWindow(key, b); ok {
			pending = append(pending, pw)
		}
		b.nextStart += d.Cfg.Stride
	}
	d.mu.Unlock()
	d.scoreAndEmit(pending)
}

// Flush forces prediction of any window that has at least half its data,
// for end-of-job cleanup. It returns the emitted events.
func (d *Detector) Flush() []Event {
	d.mu.Lock()
	var pending []pendingWindow
	keys := make([]streamKey, 0, len(d.buffers))
	for key := range d.buffers {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].job != keys[j].job {
			return keys[i].job < keys[j].job
		}
		return keys[i].comp < keys[j].comp
	})
	for _, key := range keys {
		b := d.buffers[key]
		for b.watermark >= b.nextStart+d.Cfg.Window/2 {
			if pw, ok := d.assembleWindow(key, b); ok {
				pending = append(pending, pw)
			}
			b.nextStart += d.Cfg.Stride
		}
	}
	d.mu.Unlock()
	return d.scoreAndEmit(pending)
}

// scoreAndEmit runs the model over assembled windows (outside the buffer
// lock) and delivers events in window order.
func (d *Detector) scoreAndEmit(pending []pendingWindow) []Event {
	if len(pending) == 0 {
		return nil
	}
	windowsScored.Add(float64(len(pending)))
	events := make([]Event, 0, len(pending))
	for _, pw := range pending {
		anomalous, score := d.Model.DetectVector(pw.vec)
		if anomalous {
			eventsAnomalous.Inc()
		}
		events = append(events, Event{
			JobID:       pw.key.job,
			Component:   pw.key.comp,
			WindowStart: pw.start,
			WindowEnd:   pw.end,
			Score:       score,
			Anomalous:   anomalous,
		})
	}
	if d.OnEvent != nil {
		for _, ev := range events {
			d.OnEvent(ev)
		}
	}
	return events
}

// logDrop explains one dropped window at debug level. This is a per-
// window-per-stream path: a misbehaving stream (wrong schema, constant
// gaps) would hit it every stride, so the process logger's token-bucket
// sampler (obs.Logger.SetRateLimit, prodigyd -log-rate) is what keeps it
// from flooding stderr — drops beyond the budget land in
// log_dropped_total instead.
func (d *Detector) logDrop(reason string, key streamKey, start int64) {
	if !obs.Log.Enabled(obs.LevelDebug) {
		return
	}
	obs.Debug("window dropped", "reason", reason,
		"job", key.job, "component", key.comp, "window_start", start)
}

// assembleWindow builds one window's feature vector and prunes rows that
// can no longer contribute to future windows. Caller holds d.mu.
func (d *Detector) assembleWindow(key streamKey, b *streamBuffer) (pendingWindow, bool) {
	start := b.nextStart
	end := start + d.Cfg.Window
	var tables []*timeseries.Table
	for _, sampler := range ldms.AllSamplers {
		rows := b.rows[sampler]
		if len(rows) == 0 {
			continue
		}
		tb := rowsToTable(rows, sampler, start, end)
		if tb.Len() > 0 {
			tables = append(tables, tb)
		}
	}
	if len(tables) == 0 {
		windowsDropped.With("empty").Inc()
		d.logDrop("empty", key, start)
		return pendingWindow{}, false
	}
	window := timeseries.Align(tables...)
	if window.Len() < int(d.Cfg.Window)/2 {
		windowsDropped.With("sparse").Inc()
		d.logDrop("sparse", key, start)
		return pendingWindow{}, false // too sparse to trust
	}
	window.InterpolateAll()
	acc := make([]string, 0, len(d.accumulated))
	for name := range d.accumulated {
		acc = append(acc, name)
	}
	sort.Strings(acc)
	window.DiffColumns(acc)
	window.SortColumns()

	want := len(d.Model.FeatureNames())
	if window.NumMetrics()*d.Cfg.Catalog.NumFeaturesPerSeries() != want {
		// Schema mismatch (e.g. a GPU node against a CPU model): skip
		// rather than emit garbage.
		windowsDropped.With("schema").Inc()
		d.logDrop("schema", key, start)
		return pendingWindow{}, false
	}
	vec := make([]float64, want)
	d.Cfg.Catalog.ExtractTableInto(vec, window)

	// Drop rows that can no longer contribute to any future window.
	horizon := start + d.Cfg.Stride
	pruned := 0
	for sampler, rows := range b.rows {
		keep := rows[:0]
		for _, r := range rows {
			if r.Timestamp >= horizon {
				keep = append(keep, r)
			}
		}
		pruned += len(rows) - len(keep)
		b.rows[sampler] = keep
	}
	bufferRows.Add(-float64(pruned))
	return pendingWindow{key: key, start: start, end: end, vec: vec}, true
}

// rowsToTable builds a sampler table over [start, end) from buffered rows.
func rowsToTable(rows []ldms.Row, sampler ldms.SamplerName, start, end int64) *timeseries.Table {
	var inWindow []ldms.Row
	for _, r := range rows {
		if r.Timestamp >= start && r.Timestamp < end {
			inWindow = append(inWindow, r)
		}
	}
	sort.Slice(inWindow, func(i, j int) bool { return inWindow[i].Timestamp < inWindow[j].Timestamp })
	ts := make([]int64, len(inWindow))
	for i, r := range inWindow {
		ts[i] = r.Timestamp
	}
	tb := timeseries.NewTable(ts)
	if len(inWindow) == 0 {
		return tb
	}
	// Collect the metric union, then fill columns.
	metricSet := map[string]bool{}
	for _, r := range inWindow {
		for m := range r.Values {
			metricSet[m] = true
		}
	}
	metrics := make([]string, 0, len(metricSet))
	for m := range metricSet {
		metrics = append(metrics, m)
	}
	sort.Strings(metrics)
	for _, m := range metrics {
		col := make([]float64, len(inWindow))
		for i, r := range inWindow {
			if v, ok := r.Values[m]; ok {
				col[i] = v
			} else {
				col[i] = timeseries.Missing
			}
		}
		tb.AddColumn(fmt.Sprintf("%s::%s", m, sampler), col)
	}
	return tb
}

// BuildWindowDataset slices stored telemetry into windows and extracts one
// sample per (job, component, window) — the training counterpart of the
// streaming detector. Ground truth comes from truth (job → anomalous
// components), matching DatasetBuilder.AddJob's convention.
func BuildWindowDataset(store *dsos.Store, jobs map[int64]map[int][2]string, apps map[int64]string,
	cfg Config) (*pipeline.Dataset, error) {
	gen := pipeline.NewDataGenerator(store)
	gen.TrimSeconds = 0 // windows handle boundaries themselves
	builder := &windowAccumulator{catalog: cfg.Catalog}

	jobIDs := make([]int64, 0, len(jobs))
	for id := range jobs {
		jobIDs = append(jobIDs, id)
	}
	sort.Slice(jobIDs, func(i, j int) bool { return jobIDs[i] < jobIDs[j] })

	// Per-job preprocessing and window extraction fan out across a bounded
	// worker pool (this loop dominates online-retrain wall time); each
	// worker fills its own per-job slot and the slots merge in sorted job
	// order below, so the dataset rows come out exactly as the serial loop
	// produced them.
	perJob := make([][]windowSample, len(jobIDs))
	errs := make([]error, len(jobIDs))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(jobIDs) {
		workers = len(jobIDs)
	}
	if workers < 1 {
		workers = 1
	}
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				jobID := jobIDs[i]
				tables, err := gen.JobTables(jobID)
				if err != nil {
					errs[i] = err
					continue
				}
				comps := store.Components(jobID)
				for _, comp := range comps {
					tb, ok := tables[comp]
					if !ok || tb.Len() == 0 {
						continue
					}
					meta := pipeline.SampleMeta{JobID: jobID, Component: comp, App: apps[jobID], Anomaly: "none", Label: pipeline.Healthy}
					if truth, anom := jobs[jobID][comp]; anom {
						meta.Anomaly = truth[0]
						meta.Config = truth[1]
						meta.Label = pipeline.Anomalous
					}
					last := tb.Timestamps[tb.Len()-1]
					for start := tb.Timestamps[0]; start+cfg.Window <= last+1; start += cfg.Stride {
						w := tb.Window(start, start+cfg.Window)
						if w.Len() < int(cfg.Window)/2 {
							continue
						}
						m := meta
						m.WindowStart = start
						// The vector escapes into the dataset, so it is
						// allocated here; the namespaced name table is
						// deferred to assembly, which builds it once
						// instead of per window.
						vec := make([]float64, w.NumMetrics()*cfg.Catalog.NumFeaturesPerSeries())
						cfg.Catalog.ExtractTableInto(vec, w)
						perJob[i] = append(perJob[i], windowSample{meta: m, order: w.Order, vec: vec})
					}
				}
			}
		}()
	}
	for i := range jobIDs {
		work <- i
	}
	close(work)
	wg.Wait()

	for i, samples := range perJob {
		if errs[i] != nil {
			return nil, errs[i]
		}
		for _, s := range samples {
			builder.addVec(s.meta, s.order, s.vec)
		}
	}
	return builder.build()
}

// windowAccumulator assembles the window dataset.
type windowAccumulator struct {
	catalog *features.Catalog
	names   []string
	rows    [][]float64
	meta    []pipeline.SampleMeta
}

// windowSample is one extracted window row awaiting ordered assembly. It
// carries the source table's metric order instead of the namespaced name
// table, which the accumulator builds once from the first sample.
type windowSample struct {
	meta  pipeline.SampleMeta
	order []string
	vec   []float64
}

// addVec appends a pre-extracted vector; extraction can then run on any
// goroutine while assembly stays ordered and single-goroutine.
func (w *windowAccumulator) addVec(meta pipeline.SampleMeta, order []string, vec []float64) {
	if w.names == nil {
		w.names = w.catalog.TableFeatureNames(order)
	}
	if len(vec) != len(w.names) {
		return // mixed schema window; skip
	}
	w.rows = append(w.rows, vec)
	w.meta = append(w.meta, meta)
}

func (w *windowAccumulator) build() (*pipeline.Dataset, error) {
	if len(w.rows) == 0 {
		return nil, fmt.Errorf("online: no windows extracted")
	}
	flat := make([]float64, 0, len(w.rows)*len(w.names))
	for _, r := range w.rows {
		flat = append(flat, r...)
	}
	return &pipeline.Dataset{
		FeatureNames: w.names,
		X:            matFromFlat(len(w.rows), len(w.names), flat),
		Meta:         w.meta,
	}, nil
}

// matFromFlat wraps a flat row-major buffer as a matrix.
func matFromFlat(rows, cols int, data []float64) *mat.Matrix {
	return mat.NewFromData(rows, cols, data)
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"prodigy/internal/core"
	"prodigy/internal/ensemble"
	"prodigy/internal/features"
	"prodigy/internal/ldms"
	"prodigy/internal/mat"
	"prodigy/internal/timeseries"
)

// span is one interval of a traced request. Spans of one request share
// Request; Parent is 0 for the request's root. A derived span's duration
// was read from the program's own instrument (a histogram sum or the
// tier's wait time) and is placed inside its parent, not timed by the
// benchmark.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Derived bool   `json:"derived,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// recorder keeps spans in memory. A nil recorder records nothing, which
// is how the untraced replay runs the same code.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) begin(req, parent int, name string) int {
	if r == nil {
		return 0
	}
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Request: req, Name: name,
		StartNs: int64(time.Since(r.epoch))})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	r.spans[id-1].EndNs = int64(time.Since(r.epoch))
}

// derived adds a span of duration d starting offset after its parent's
// start.
func (r *recorder) derived(req, parent int, name string, offset, d time.Duration) int {
	if r == nil || parent == 0 {
		return 0
	}
	start := r.spans[parent-1].StartNs + int64(offset)
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Request: req, Name: name,
		StartNs: start, EndNs: start + int64(d), Derived: true})
	return len(r.spans)
}

// selfTimes returns each span name's total self time — its duration minus
// its children's — and the total duration of the roots. The roots' self
// time is the part of the request no layer accounts for.
func selfTimes(spans []span) (self map[string]time.Duration, rootTotal time.Duration) {
	child := map[int]time.Duration{}
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.dur()
		}
	}
	self = map[string]time.Duration{}
	for _, s := range spans {
		self[s.Name] += s.dur() - child[s.ID]
		if s.Parent == 0 {
			rootTotal += s.dur()
		}
	}
	return self, rootTotal
}

// writeSpans writes the recorded spans to dir as JSON.
func writeSpans(dir, workload string, seed int64, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", workload, seed))
	blob, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return err
	}
	fmt.Printf("spans: %d written to %s\n", len(spans), path)
	return nil
}

// analysisReplay is what one replayed job analysis produced.
type analysisReplay struct {
	body   []byte
	nodes  int
	series int
	took   time.Duration
}

// replayAnalysis replays GET /api/jobs/{id}/anomalies by calling the
// public functions core.Prodigy.AnalyzeJob is built from, in its order,
// on the replica the handler would use: the DSOS query with alignment,
// the DataGenerator's preprocessing steps, per-series feature
// extraction, per-node detection, then the JSON encoding writeJSON does.
func replayAnalysis(d *deployment, job int64, rec *recorder, req int) (analysisReplay, error) {
	start := time.Now()
	replica := d.srv.Tier.ReplicaForJob(job)
	cat := replica.Cfg.Catalog
	if cat == nil {
		cat = features.Default()
	}
	trim := replica.Cfg.TrimSeconds
	if trim <= 0 {
		trim = 60
	}
	arena := timeseries.GetArena()
	defer timeseries.PutArena(arena)

	root := rec.begin(req, 0, "request")
	s := rec.begin(req, root, "dsos.query")
	tables, err := d.store.QueryJobInto(arena, job)
	comps := d.store.Components(job)
	rec.end(s)
	if err != nil {
		return analysisReplay{}, err
	}

	s = rec.begin(req, root, "timeseries.preprocess")
	acc := ldms.AccumulatedNames()
	for _, tb := range tables {
		tb.InterpolateAll()
		tb.DiffColumns(acc)
		tb.TrimBoundary(trim)
		tb.SortColumns()
	}
	rec.end(s)

	s = rec.begin(req, root, "features.extract")
	names := replica.FeatureNames()
	per := cat.NumFeaturesPerSeries()
	order := make([]int, 0, len(comps))
	for _, c := range comps {
		if _, ok := tables[c]; ok {
			order = append(order, c)
		}
	}
	x := mat.New(len(order), len(names))
	ws := features.GetWorkspace()
	series := 0
	for i, c := range order {
		tb := tables[c]
		if n := tb.NumMetrics() * per; n != len(names) {
			features.PutWorkspace(ws)
			return analysisReplay{}, fmt.Errorf("job %d component %d yields %d features, model expects %d", job, c, n, len(names))
		}
		row := x.Row(i)
		for mi, m := range tb.Order {
			cat.ExtractSeriesInto(row[mi*per:(mi+1)*per], tb.Columns[m], ws)
		}
		series += len(tb.Order)
	}
	features.PutWorkspace(ws)
	rec.end(s)

	s = rec.begin(req, root, "core.predict")
	nodes := make([]core.NodePrediction, 0, len(order))
	for i, c := range order {
		preds, scores, threshold := replica.DetectBatch(mat.NewFromData(1, x.Cols, x.Row(i)))
		nodes = append(nodes, core.NodePrediction{Component: c, Anomalous: preds[0] == 1, Score: scores[0], Threshold: threshold})
	}
	rec.end(s)

	s = rec.begin(req, root, "server.encode")
	body := encodeLikeServer(map[string]interface{}{"job_id": job, "nodes": nodes})
	rec.end(s)
	rec.end(root)
	return analysisReplay{body: body, nodes: len(order), series: series, took: time.Since(start)}, nil
}

// scoreReplay is what one replayed /api/score request produced.
type scoreReplay struct {
	body   []byte
	batch  int // serve.score_batch span ID (0 untraced)
	waited time.Duration
	rows   int
	took   time.Duration
}

// replayScore replays POST /api/score by calling the public functions the
// handler does, in its order: decode and validate the body the way the
// handler's decoder does, Tier.ScoreBatch with the decoded rows, then the
// JSON encoding writeJSON does.
func replayScore(d *deployment, body []byte, rec *recorder, req int) (scoreReplay, error) {
	start := time.Now()
	root := rec.begin(req, 0, "request")
	s := rec.begin(req, root, "server.decode")
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var sr scoreRequest
	err := dec.Decode(&sr)
	if err == nil && dec.More() {
		err = errors.New("trailing data")
	}
	if err == nil && (len(sr.Vectors) == 0 || len(sr.Vectors[0]) != len(d.p.FeatureNames())) {
		err = errors.New("bad width")
	}
	rec.end(s)
	if err != nil {
		return scoreReplay{}, err
	}

	batch := rec.begin(req, root, "serve.score_batch")
	res, err := d.srv.Tier.ScoreBatch(context.Background(), sr.Vectors)
	rec.end(batch)
	if err != nil {
		return scoreReplay{}, err
	}

	s = rec.begin(req, root, "server.encode")
	results := make([]scoreResult, len(res.Scores))
	for i := range res.Scores {
		results[i] = scoreResult{Score: res.Scores[i], Anomalous: res.Preds[i] == 1}
	}
	out := encodeLikeServer(map[string]interface{}{"threshold": res.Threshold, "results": results})
	rec.end(s)
	rec.end(root)
	return scoreReplay{body: out, batch: batch, waited: res.Waited, rows: len(sr.Vectors), took: time.Since(start)}, nil
}

// tailMs returns the highest of p99, p90 and p50 that has at least
// minBeyond samples beyond it, with its quantile.
func tailMs(sorted []float64) (q, v float64) {
	for _, q := range []float64{0.99, 0.90, 0.50} {
		if v, ok := percentile(sorted, q); ok {
			return q, v
		}
	}
	return 0, 0
}

// perLayer lists the per-layer metrics and their units, in the order of
// BENCHMARK.json. Every traced run reports all of them on both workloads;
// layers a workload does not exercise read 0.
var perLayer = []struct{ name, unit string }{
	{"setup.simulate_s", "s"}, {"setup.dataset_s", "s"}, {"setup.train_s", "s"}, {"setup.extras_s", "s"}, {"setup.tier_s", "s"},
	{"dsos.query_ms", "ms"}, {"dsos.ingest_tick_ms", "ms"}, {"dsos.ingest_us_per_row", "us"}, {"timeseries.preprocess_ms", "ms"}, {"timeseries.arena_hit_frac", "ratio"},
	{"features.extract_ms", "ms"}, {"features.series", "count"}, {"features.ws_hit_frac", "ratio"}, {"mat.ws_hit_frac", "ratio"},
	{"core.predict_us", "us"}, {"pipeline.score_us_per_row", "us"},
	{"server.http_ms", "ms"}, {"server.codec_ms", "ms"},
	{"serve.wait_ms", "ms"}, {"serve.batch_rows", "count"}, {"serve.flush_window", "count"}, {"serve.flush_size", "count"},
	{"serve.shed_queue_full", "count"}, {"serve.shed_deadline", "count"},
	{"ensemble.pass_frac", "ratio"}, {"ensemble.prefilter_us_per_row", "us"}, {"ensemble.fleet_us_per_row", "us"},
	{"ensemble.fuse_us_per_row", "us"}, {"ensemble.models_active", "count"}, {"ensemble.sched_transitions", "count"},
	{"ledger.naive_ns_per_row", "ns"}, {"ledger.vae_ns_per_row", "ns"}, {"ledger.usad_ns_per_row", "ns"}, {"ledger.lof_ns_per_row", "ns"},
	{"obs.query_ms", "ms"}, {"obs.extract_score_ms", "ms"}, {"obs.coalesce_wait_ms", "ms"}, {"obs.batch_score_ms", "ms"},
	{"runtime.gc_cycles", "count"}, {"runtime.gc_pause_ms", "ms"}, {"runtime.alloc_kb_per_req", "kB"},
	{"loadgen.late_ms", "ms"}, {"trace.unattributed_frac", "ratio"}, {"trace.overhead_frac", "ratio"}, {"trace.requests", "count"},
	{"host.probe_us", "us"},
}

// layerMetrics returns every per-layer metric at 0.
func layerMetrics() map[string]metric {
	m := map[string]metric{}
	for _, n := range perLayer {
		m[n.name] = metric{0, n.unit}
	}
	return m
}

func set(m map[string]metric, name string, v float64) {
	mt, ok := m[name]
	if !ok {
		panic("unknown per-layer metric " + name)
	}
	mt.Value = v
	m[name] = mt
}

// setSetup fills the set-up phase medians.
func setSetup(m map[string]metric, times []setupTimes) {
	pick := func(f func(setupTimes) time.Duration) float64 {
		xs := make([]float64, len(times))
		for i, t := range times {
			xs[i] = f(t).Seconds()
		}
		return median(xs)
	}
	set(m, "setup.simulate_s", pick(func(t setupTimes) time.Duration { return t.simulate }))
	set(m, "setup.dataset_s", pick(func(t setupTimes) time.Duration { return t.dataset }))
	set(m, "setup.train_s", pick(func(t setupTimes) time.Duration { return t.train }))
	set(m, "setup.extras_s", pick(func(t setupTimes) time.Duration { return t.extras }))
	set(m, "setup.tier_s", pick(func(t setupTimes) time.Duration { return t.tier }))
}

// setHarvest fills the metrics read from the program's own instruments
// over a load phase that answered requests requests.
func setHarvest(m map[string]metric, before, after obsSnapshot, rtBefore, rtAfter runtimeStats, requests int) {
	hit := func(prefix string) float64 {
		h := after.sub(before, prefix+"_pool_hits_total")
		return ratio(h, h+after.sub(before, prefix+"_pool_misses_total"))
	}
	set(m, "features.ws_hit_frac", hit("features_workspace"))
	set(m, "mat.ws_hit_frac", hit("mat_workspace"))
	set(m, "timeseries.arena_hit_frac", hit("timeseries_arena"))
	mean := func(hist, labels string) float64 {
		return ratio(after.sub(before, hist+"_sum"+labels), after.sub(before, hist+"_count"+labels))
	}
	set(m, "obs.query_ms", 1e3*mean("span_duration_seconds", "{span=core.analyze_job.query}"))
	set(m, "obs.extract_score_ms", 1e3*mean("span_duration_seconds", "{span=core.analyze_job.extract_score}"))
	set(m, "obs.coalesce_wait_ms", 1e3*mean("serve_coalesce_wait_seconds", ""))
	scoreSum := after.sub(before, "pipeline_batch_score_seconds_sum{path=serial}") + after.sub(before, "pipeline_batch_score_seconds_sum{path=parallel}")
	scoreCount := after.sub(before, "pipeline_batch_score_seconds_count{path=serial}") + after.sub(before, "pipeline_batch_score_seconds_count{path=parallel}")
	set(m, "obs.batch_score_ms", 1e3*ratio(scoreSum, scoreCount))
	set(m, "serve.batch_rows", mean("serve_batch_rows", ""))
	set(m, "serve.flush_window", after.sub(before, "serve_flush_total{trigger=window}"))
	set(m, "serve.flush_size", after.sub(before, "serve_flush_total{trigger=size}"))
	set(m, "serve.shed_queue_full", after.sub(before, "serve_shed_total{reason=queue_full}"))
	set(m, "serve.shed_deadline", after.sub(before, "serve_shed_total{reason=deadline}"))
	rows := after.sub(before, "ensemble_rows_total")
	passed := after.sub(before, "ensemble_rows_passed_total")
	set(m, "ensemble.pass_frac", ratio(passed, rows))
	set(m, "ensemble.prefilter_us_per_row", 1e6*ratio(after.sub(before, "ensemble_stage_seconds_sum{stage=prefilter}"), rows))
	set(m, "ensemble.fleet_us_per_row", 1e6*ratio(after.sub(before, "ensemble_stage_seconds_sum{stage=fleet}"), passed))
	set(m, "ensemble.fuse_us_per_row", 1e6*ratio(after.sub(before, "ensemble_stage_seconds_sum{stage=fuse}"), passed))
	set(m, "ensemble.sched_transitions", after.sub(before, "ensemble_sched_transitions_total{action=shed}")+
		after.sub(before, "ensemble_sched_transitions_total{action=restore}"))
	for _, model := range []string{"naive", "vae", "usad", "lof"} {
		secs := after.sub(before, "model_score_seconds_total{model="+model+"}")
		set(m, "ledger."+model+"_ns_per_row", 1e9*ratio(secs, after.sub(before, "model_rows_scored_total{model="+model+"}")))
	}
	set(m, "runtime.gc_cycles", float64(rtAfter.gcCycles-rtBefore.gcCycles))
	set(m, "runtime.gc_pause_ms", float64(rtAfter.pauseNs-rtBefore.pauseNs)/1e6)
	set(m, "runtime.alloc_kb_per_req", ratio(float64(rtAfter.allocated-rtBefore.allocated)/1024, float64(requests)))
}

// replayMinRequests is the fewest requests a replay phase replays, however
// short its time.
const replayMinRequests = 30

// traceDashboard is the traced dashboard run: a load phase read through
// the program's own instruments, then a sequential replay that times each
// layer from the benchmark's side, traced and untraced in turn.
func traceDashboard(d *deployment, seed int64, window time.Duration, times []setupTimes, out string) (*report, error) {
	in, err := prepareDashboard(d, seed)
	if err != nil {
		return nil, err
	}
	bad := in.warmBad
	m := layerMetrics()
	setSetup(m, times)

	o0, r0 := readObs(), readRuntime()
	load := dashboardLoad(d, in, window*2/3)
	o1, r1 := readObs(), readRuntime()
	setHarvest(m, o0, o1, r0, r1, load.tally.attempted)
	bad += load.tally.mismatched
	set(m, "dsos.ingest_tick_ms", median(sortedMs(load.ingest)))
	set(m, "dsos.ingest_us_per_row", 1e6*ratio(sumDur(load.ingest).Seconds(), float64(load.rows)))
	_, late := tailMs(sortedMs(load.tickLate))
	set(m, "loadgen.late_ms", late)
	set(m, "host.probe_us", load.probeNs/1e3)

	rec := newRecorder()
	var plain, traced []float64
	var httpMs, nodes, series []float64
	deadline := time.Now().Add(window / 3)
	n := 0
	for ; n < replayMinRequests || time.Now().Before(deadline); n++ {
		job := in.seq[n%len(in.seq)]
		var tr, pl analysisReplay
		var errT, errP error
		if n%2 == 0 {
			pl, errP = replayAnalysis(d, job, nil, n+1)
			tr, errT = replayAnalysis(d, job, rec, n+1)
		} else {
			tr, errT = replayAnalysis(d, job, rec, n+1)
			pl, errP = replayAnalysis(d, job, nil, n+1)
		}
		if errT != nil || errP != nil {
			return nil, fmt.Errorf("replay of job %d: %v %v", job, errT, errP)
		}
		t0 := time.Now()
		status, match, got := call(d.srv, http.MethodGet, in.urls[job], nil, in.ref[job])
		httpMs = append(httpMs, float64(time.Since(t0))/1e6)
		if status != http.StatusOK || !match || !bytes.Equal(got, tr.body) || !bytes.Equal(pl.body, tr.body) {
			bad++
		}
		plain = append(plain, float64(pl.took)/1e6)
		traced = append(traced, float64(tr.took)/1e6)
		nodes = append(nodes, float64(tr.nodes))
		series = append(series, float64(tr.series))
	}
	self, rootTotal := selfTimes(rec.spans)
	perReq := func(name string) float64 { return float64(self[name]) / 1e6 / float64(n) }
	set(m, "dsos.query_ms", perReq("dsos.query"))
	set(m, "timeseries.preprocess_ms", perReq("timeseries.preprocess"))
	set(m, "features.extract_ms", perReq("features.extract"))
	set(m, "features.series", mean(series))
	set(m, "core.predict_us", 1e3*perReq("core.predict")/mean(nodes))
	set(m, "pipeline.score_us_per_row", 1e3*perReq("core.predict")/mean(nodes)) // a copy: one row per node
	set(m, "server.codec_ms", perReq("server.encode"))
	set(m, "server.http_ms", mean(httpMs))
	finishTrace(m, self, rootTotal, plain, traced, n)
	printCrossCheck([][3]interface{}{
		{"query + preprocess (ms)", m["obs.query_ms"].Value, m["dsos.query_ms"].Value + m["timeseries.preprocess_ms"].Value},
		{"extract + score (ms)", m["obs.extract_score_ms"].Value, m["features.extract_ms"].Value + perReq("core.predict")},
	})
	if err := writeSpans(out, "dashboard", seed, rec.spans); err != nil {
		return nil, err
	}
	return &report{Correct: bad == 0, Attempted: load.tally.attempted + n, Failed: load.tally.failed() + bad, Metrics: m}, nil
}

// traceScore is the traced scoring run: a nominal-rate load phase read
// through the program's own instruments, then a sequential replay of the
// handler's calls, each request also sent through ServeHTTP and scored by
// Prodigy.DetectBatch directly, so the three answers can be compared and
// the layer times subtracted.
func traceScore(d *deployment, seed int64, window time.Duration, times []setupTimes, out string) (*report, error) {
	in, err := prepareScore(d, seed)
	if err != nil {
		return nil, err
	}
	bad := in.warmBad
	m := layerMetrics()
	setSetup(m, times)

	o0, r0 := readObs(), readRuntime()
	load := openLoopScore(d, in, nominalRate, nominalWindow(window))
	o1, r1 := readObs(), readRuntime()
	setHarvest(m, o0, o1, r0, r1, load.tally.attempted)
	bad += load.tally.mismatched
	_, late := tailMs(sortedMs(load.late))
	set(m, "loadgen.late_ms", late)
	set(m, "host.probe_us", load.probeNs/1e3)
	if ens, ok := ensemble.Of(d.p.Artifact()); ok {
		set(m, "ensemble.models_active", float64(len(ens.ActiveMembers())))
	}

	rec := newRecorder()
	var plain, traced, httpMs, batchMs, flushMs, detectUs, rows []float64
	deadline := time.Now().Add(window * 3 / 10)
	n := 0
	for ; n < replayMinRequests || time.Now().Before(deadline); n++ {
		b := in.seq[n%len(in.seq)]
		var tr, pl scoreReplay
		var errT, errP error
		if n%2 == 1 {
			pl, errP = replayScore(d, in.bodies[b], nil, n+1)
		}
		h0 := readObs()
		tr, errT = replayScore(d, in.bodies[b], rec, n+1)
		h1 := readObs()
		if n%2 == 0 {
			pl, errP = replayScore(d, in.bodies[b], nil, n+1)
		}
		if errT != nil || errP != nil {
			return nil, fmt.Errorf("replay of body %d: %v %v", b, errT, errP)
		}
		// The flush's scoring and the cascade stages inside it, from the
		// program's own histograms: nothing else scored between h0 and h1.
		flush := time.Duration(1e9 * (h1.sub(h0, "pipeline_batch_score_seconds_sum{path=serial}") +
			h1.sub(h0, "pipeline_batch_score_seconds_sum{path=parallel}")))
		rec.derived(n+1, tr.batch, "serve.wait", 0, tr.waited)
		det := rec.derived(n+1, tr.batch, "pipeline.detect_batch", tr.waited, flush)
		off := time.Duration(0)
		for _, stage := range []string{"prefilter", "fleet", "fuse"} {
			dur := time.Duration(1e9 * h1.sub(h0, "ensemble_stage_seconds_sum{stage="+stage+"}"))
			rec.derived(n+1, det, "ensemble."+stage, off, dur)
			off += dur
		}

		t0 := time.Now()
		status, match, got := call(d.srv, http.MethodPost, "/api/score", in.bodies[b], in.ref[b])
		httpMs = append(httpMs, float64(time.Since(t0))/1e6)
		x := mat.New(len(in.rows[b]), in.held.X.Cols)
		for j, r := range in.rows[b] {
			copy(x.Row(j), in.held.X.Row(r))
		}
		t1 := time.Now()
		preds, scores, threshold := d.p.DetectBatch(x)
		detectUs = append(detectUs, float64(time.Since(t1))/1e3)
		results := make([]scoreResult, len(scores))
		for j := range scores {
			results[j] = scoreResult{Score: scores[j], Anomalous: preds[j] == 1}
		}
		direct := encodeLikeServer(map[string]interface{}{"threshold": threshold, "results": results})
		if status != http.StatusOK || !match || !bytes.Equal(got, tr.body) || !bytes.Equal(pl.body, tr.body) || !bytes.Equal(direct, tr.body) {
			bad++
		}
		plain = append(plain, float64(pl.took)/1e6)
		traced = append(traced, float64(tr.took)/1e6)
		batchMs = append(batchMs, float64(rec.spans[tr.batch-1].dur())/1e6)
		flushMs = append(flushMs, float64(flush)/1e6)
		rows = append(rows, float64(tr.rows))
	}
	self, rootTotal := selfTimes(rec.spans)
	set(m, "server.http_ms", mean(httpMs))
	set(m, "server.codec_ms", mean(httpMs)-mean(batchMs))
	set(m, "serve.wait_ms", mean(batchMs)-mean(flushMs))
	set(m, "pipeline.score_us_per_row", sum(detectUs)/sum(rows))
	finishTrace(m, self, rootTotal, plain, traced, n)
	perReq := func(name string) float64 { return float64(self[name]) / 1e6 / float64(n) }
	printCrossCheck([][3]interface{}{
		{"coalesce wait (ms)", m["obs.coalesce_wait_ms"].Value, perReq("serve.wait")},
		{"batch score (ms)", m["obs.batch_score_ms"].Value, mean(flushMs)},
	})
	if err := writeSpans(out, "score", seed, rec.spans); err != nil {
		return nil, err
	}
	return &report{Correct: bad == 0, Attempted: load.tally.attempted + n, Failed: load.tally.failed() + bad, Metrics: m}, nil
}

// finishTrace fills the trace-quality metrics and prints the self-time
// table.
func finishTrace(m map[string]metric, self map[string]time.Duration, rootTotal time.Duration, plain, traced []float64, n int) {
	set(m, "trace.requests", float64(n))
	set(m, "trace.unattributed_frac", ratio(float64(self["request"]), float64(rootTotal)))
	set(m, "trace.overhead_frac", ratio(median(traced)-median(plain), median(plain)))
	names := make([]string, 0, len(self))
	for k := range self {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Printf("layer self time over %d traced requests (%.3f ms each):\n", n, float64(rootTotal)/1e6/float64(n))
	for _, k := range names {
		label := k
		if k == "request" {
			label = "(unattributed)"
		}
		fmt.Printf("  %-26s %9.3f ms  %5.1f%%\n", label, float64(self[k])/1e6/float64(n), 100*ratio(float64(self[k]), float64(rootTotal)))
	}
}

// printCrossCheck prints the program's own instruments (read over the
// load phase) next to the replay's times for the same stage.
func printCrossCheck(rows [][3]interface{}) {
	fmt.Println("cross-check: program instruments (load phase) vs traced replay (sequential)")
	for _, r := range rows {
		fmt.Printf("  %-26s %9.3f  %9.3f\n", r[0], r[1], r[2])
	}
}

package prodigy

// Serving-tier benchmarks (DESIGN.md §15): the coalescing claim is a
// throughput claim about concurrency, so the suite has three closed-loop
// benchmarks — the raw detector floor, one synchronous HTTP connection
// (which pays the full coalescing window per request), and 64 concurrent
// HTTP connections (which amortize it) — plus an open-loop saturation
// sweep (measureServingLoad) that drives the tier at and beyond its
// measured capacity and records tail latency and shed rate.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"prodigy/internal/core"
	"prodigy/internal/dsos"
	"prodigy/internal/mat"
	"prodigy/internal/obs"
	"prodigy/internal/pipeline"
	"prodigy/internal/serve"
	"prodigy/internal/server"
	"prodigy/internal/vae"
)

// servingModel trains a small but real detector: 96 samples × 24
// features through the full select/scale/VAE pipeline. Deliberately tiny
// so per-request serving overhead, not model FLOPs, dominates — the
// quantity the coalescer exists to amortize.
func servingModel(tb testing.TB) *core.Prodigy { return trainServingModel(tb, 24, 12) }

// trainServingModel trains the serving detector over a full feature
// space of the given width, keeping topK columns.
func trainServingModel(tb testing.TB, features, topK int) *core.Prodigy {
	tb.Helper()
	const samples = 96
	rng := rand.New(rand.NewSource(7))
	names := make([]string, features)
	for i := range names {
		names[i] = "srv_f" + strconv.Itoa(i)
	}
	x := mat.New(samples, features)
	meta := make([]pipeline.SampleMeta, samples)
	for i := 0; i < samples; i++ {
		label := pipeline.Healthy
		if i%6 == 5 {
			label = pipeline.Anomalous
		}
		for j := 0; j < features; j++ {
			v := rng.NormFloat64()
			if label == pipeline.Anomalous {
				v += 3
			}
			x.Data[i*x.Cols+j] = v
		}
		meta[i] = pipeline.SampleMeta{JobID: int64(i), Label: label}
	}
	ds := &pipeline.Dataset{FeatureNames: names, X: x, Meta: meta}
	cfg := core.DefaultConfig()
	cfg.VAE = vae.Config{HiddenDims: []int{16}, LatentDim: 4, Activation: "tanh",
		LearningRate: 1e-3, BatchSize: 32, Epochs: 4, Seed: 11}
	cfg.Trainer = pipeline.TrainerConfig{TopK: topK, ThresholdPercentile: 95, ScalerKind: "minmax"}
	p := core.New(cfg)
	if err := p.Fit(ds, ds); err != nil {
		tb.Fatalf("fit: %v", err)
	}
	return p
}

// servingHTTP stands up the real HTTP stack over a coalescing tier and
// returns the test server, the model width, and a pre-encoded
// single-row score body.
func servingHTTP(tb testing.TB, p *core.Prodigy, tierCfg serve.Config) (*httptest.Server, []byte) {
	tb.Helper()
	tier := serve.NewTier(p, tierCfg)
	srv := server.NewWithTier(dsos.NewStore(), p, tier)
	ts := httptest.NewServer(srv)
	tb.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	width := len(p.FeatureNames())
	rng := rand.New(rand.NewSource(3))
	row := make([]float64, width)
	for i := range row {
		row[i] = rng.NormFloat64()
	}
	body, err := json.Marshal(map[string][][]float64{"vectors": {row}})
	if err != nil {
		tb.Fatal(err)
	}
	return ts, body
}

// postScore sends one score request and fails the benchmark on anything
// but 200 or a shed.
func postScore(tb testing.TB, client *http.Client, url string, body []byte) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		tb.Errorf("score: %v", err)
		return
	}
	defer resp.Body.Close()
	var out map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		tb.Errorf("score decode: %v", err)
		return
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
		tb.Errorf("score status %d: %v", resp.StatusCode, out)
	}
}

// BenchmarkServeDirectSingleRow is the floor: the detector called
// synchronously with one row, no HTTP, no coalescing.
func BenchmarkServeDirectSingleRow(b *testing.B) {
	p := servingModel(b)
	width := len(p.FeatureNames())
	rng := rand.New(rand.NewSource(3))
	row := make([]float64, width)
	for i := range row {
		row[i] = rng.NormFloat64()
	}
	x := mat.NewFromData(1, width, row)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.DetectBatch(x)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "samples/s")
}

// BenchmarkServeSingleConn is one synchronous connection through the
// full HTTP + coalescing stack: with nobody to share a batch with, every
// request pays the whole coalescing window, so ns/op ≈ window + scoring.
// This is the baseline the ≥5× coalescing claim is measured against.
func BenchmarkServeSingleConn(b *testing.B) {
	ts, body := servingHTTP(b, servingModel(b), serve.DefaultConfig())
	url := ts.URL + "/api/score"
	client := ts.Client()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		postScore(b, client, url, body)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "samples/s")
}

// BenchmarkServeCoalesced64 drives the same single-row request from 64
// concurrent connections: the coalescer merges concurrent arrivals into
// shared batches, amortizing the window across them.
func BenchmarkServeCoalesced64(b *testing.B) {
	ts, body := servingHTTP(b, servingModel(b), serve.DefaultConfig())
	url := ts.URL + "/api/score"
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 128}}
	defer client.CloseIdleConnections()
	const conns = 64
	iters := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range iters {
				postScore(b, client, url, body)
			}
		}()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iters <- struct{}{}
	}
	close(iters)
	wg.Wait()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "samples/s")
}

// BenchmarkServeWideRow posts one json.Marshal'd row at the score
// workload's full width (6,240 columns) through the real handler, in
// process, against a TopK=100 model: the per-request cost of decode,
// admission, a one-row flush and encode. A one-row MaxBatch flushes each
// request as it arrives, so the coalescing window does not hide that
// cost.
func BenchmarkServeWideRow(b *testing.B) {
	const width = 6240
	p := trainServingModel(b, width, 100)
	srv := server.NewWithTier(dsos.NewStore(), p, serve.NewTier(p, serve.Config{MaxBatch: 1}))
	defer srv.Close()
	rng := rand.New(rand.NewSource(3))
	row := make([]float64, width)
	for i := range row {
		row[i] = rng.NormFloat64()
	}
	body, err := json.Marshal(map[string][][]float64{"vectors": {row}})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/score", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("score status %d: %s", rec.Code, rec.Body)
		}
	}
}

// TestScoreWideRowsMatchDetectBatch pins the routed /api/score path —
// route, pruned decode straight into selected-width rows, coalesced
// flush, encode — to Prodigy.DetectBatch on the same full-width rows, bit
// for bit, on rows shaped like the score workload's: 6,240 columns of
// json.Marshal'd values against a TopK=100 model, one-row and
// whole-job bodies posted concurrently to a two-replica tier.
func TestScoreWideRowsMatchDetectBatch(t *testing.T) {
	const width = 6240
	p := trainServingModel(t, width, 100)
	// A deadline far past any host's decode time: this test is about the
	// answers, and a shed request would have none.
	srv := server.NewWithTier(dsos.NewStore(), p, serve.NewTier(p, serve.Config{Replicas: 2, Deadline: time.Minute}))
	defer srv.Close()
	rng := rand.New(rand.NewSource(11))
	bodies := make([][]byte, 12)
	want := make([]*mat.Matrix, len(bodies))
	for b := range bodies {
		rows := 1 + b%3*7 // 1, 8 and 15 nodes
		x := mat.New(rows, width)
		for i := range x.Data {
			x.Data[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
		}
		vecs := make([][]float64, rows)
		for i := range vecs {
			vecs[i] = x.Row(i)
		}
		body, err := json.Marshal(map[string][][]float64{"vectors": vecs})
		if err != nil {
			t.Fatal(err)
		}
		bodies[b], want[b] = body, x
	}
	var wg sync.WaitGroup
	for b := range bodies {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/score", bytes.NewReader(bodies[b])))
			if rec.Code != http.StatusOK {
				t.Errorf("body %d: status %d: %s", b, rec.Code, rec.Body)
				return
			}
			var got struct {
				Threshold float64 `json:"threshold"`
				Results   []struct {
					Score     float64 `json:"score"`
					Anomalous bool    `json:"anomalous"`
				} `json:"results"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
				t.Errorf("body %d: %v", b, err)
				return
			}
			preds, scores, threshold := p.DetectBatch(want[b])
			if len(got.Results) != len(scores) || math.Float64bits(got.Threshold) != math.Float64bits(threshold) {
				t.Errorf("body %d: %d results at threshold %v, want %d at %v", b, len(got.Results), got.Threshold, len(scores), threshold)
				return
			}
			for i, r := range got.Results {
				if math.Float64bits(r.Score) != math.Float64bits(scores[i]) || r.Anomalous != (preds[i] == 1) {
					t.Errorf("body %d row %d: got (%v, %v), want (%v, %v)", b, i, r.Score, r.Anomalous, scores[i], preds[i] == 1)
				}
			}
		}(b)
	}
	wg.Wait()
}

// loadPointMetrics is the entry one load point records. p50_ns/p99_ns
// are the tier's own admission-to-flush waits (Result.Waited) — the
// latency the deadline-shed mechanism bounds. client_p99_ns is wall-clock
// latency as the submitting goroutine saw it, which on a single-core
// runner also includes the scheduler delay of the co-located load
// generator itself.
func loadPointMetrics(offeredRPS float64, latencies, waits []time.Duration, shed int) map[string]float64 {
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	sort.Slice(waits, func(i, j int) bool { return waits[i] < waits[j] })
	quantile := func(sorted []time.Duration, p float64) float64 {
		return float64(sorted[int(p*float64(len(sorted)-1))].Nanoseconds())
	}
	return map[string]float64{
		"offered_rows_per_s": offeredRPS,
		"p50_ns":             quantile(waits, 0.50),
		"p99_ns":             quantile(waits, 0.99),
		"client_p99_ns":      quantile(latencies, 0.99),
		"shed_frac":          float64(shed) / float64(len(latencies)+shed),
	}
}

// measureScoreCeiling benchmarks back-to-back full-batch DetectBatch
// calls — the hard ceiling of a single-replica tier, whose one flusher
// thread can never score faster than the detector itself at MaxBatch.
// Offering multiples of this number is guaranteed overload, not an
// artifact of probe overhead.
func measureScoreCeiling(tb testing.TB, p *core.Prodigy, width, maxBatch int) float64 {
	tb.Helper()
	rng := rand.New(rand.NewSource(29))
	x := mat.New(maxBatch, width)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.DetectBatch(x)
		}
	})
	if res.N == 0 {
		tb.Fatal("ceiling probe did not run")
	}
	perOp := float64(res.T.Nanoseconds()) / float64(res.N)
	return float64(maxBatch) / (perOp / 1e9)
}

// runOpenLoop offers load at a fixed rate regardless of completions —
// the arrival process a production tier actually faces — and records
// per-request latency and the shed fraction. The pacer recomputes how
// many requests should have been sent from the wall clock each tick, so
// sleep overshoot never silently lowers the offered rate. Requests are
// fired without a client-side concurrency cap — admission control is the
// tier's job, and shed requests return immediately, which is exactly
// what keeps the generator's goroutine count bounded under overload.
func runOpenLoop(tb testing.TB, tier *serve.Tier, width int, rowsPerSec float64, runFor time.Duration) map[string]float64 {
	tb.Helper()
	const reqRows = 1024
	interval := time.Millisecond
	var (
		mu        sync.Mutex
		latencies []time.Duration
		waits     []time.Duration
		shed      int
		wg        sync.WaitGroup
	)
	rng := rand.New(rand.NewSource(17))
	vecs := randServeVectors(rng, reqRows, width)
	sent := 0
	maxQueued := 0
	shedBefore := serveShedCounts()
	start := time.Now()
	for {
		elapsed := time.Since(start)
		if elapsed >= runFor {
			break
		}
		if q := tier.QueuedRows(); q > maxQueued {
			maxQueued = q
		}
		target := int(rowsPerSec * elapsed.Seconds() / reqRows)
		for ; sent < target; sent++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				t0 := time.Now()
				res, err := tier.ScoreBatch(context.Background(), vecs)
				lat := time.Since(t0)
				mu.Lock()
				defer mu.Unlock()
				switch {
				case err == nil:
					latencies = append(latencies, lat)
					waits = append(waits, res.Waited)
				case errors.Is(err, serve.ErrOverloaded):
					shed++
				default:
					tb.Errorf("open-loop score: %v", err)
				}
			}()
		}
		time.Sleep(interval)
	}
	wg.Wait()
	if len(latencies) == 0 {
		tb.Fatalf("open-loop at %.0f rows/s completed no request", rowsPerSec)
	}
	shedAfter := serveShedCounts()
	tb.Logf("open-loop %.0f rows/s: %d scored, %d shed (queue_full %+.0f, deadline %+.0f), max queued rows %d",
		rowsPerSec, len(latencies), shed,
		shedAfter[serveShedQueueFull]-shedBefore[serveShedQueueFull],
		shedAfter[serveShedDeadline]-shedBefore[serveShedDeadline], maxQueued)
	return loadPointMetrics(rowsPerSec, latencies, waits, shed)
}

// runSaturated drives the tier closed-loop from `workers` standing
// clients, each re-submitting the moment its previous request resolves
// (with a 1ms pause after a shed). On a single-core runner a paced
// generator cannot reliably overload the tier: the excess goroutines
// pile up in the runtime scheduler's run queue, never reaching the
// admission queue. Standing concurrent demand presents at admission
// directly, so it exercises queue_full shedding deterministically.
// offeredRPS reports the demand actually presented — attempted rows
// (scored + shed) over wall time.
func runSaturated(tb testing.TB, tier *serve.Tier, width, workers int, runFor time.Duration) map[string]float64 {
	tb.Helper()
	const reqRows = 1024
	var (
		mu        sync.Mutex
		latencies []time.Duration
		waits     []time.Duration
		shed      int
		wg        sync.WaitGroup
	)
	rng := rand.New(rand.NewSource(23))
	vecs := randServeVectors(rng, reqRows, width)
	shedBefore := serveShedCounts()
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < runFor {
				t0 := time.Now()
				res, err := tier.ScoreBatch(context.Background(), vecs)
				lat := time.Since(t0)
				mu.Lock()
				switch {
				case err == nil:
					latencies = append(latencies, lat)
					waits = append(waits, res.Waited)
				case errors.Is(err, serve.ErrOverloaded):
					shed++
				default:
					tb.Errorf("saturated score: %v", err)
				}
				mu.Unlock()
				if err != nil {
					time.Sleep(time.Millisecond)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if len(latencies) == 0 {
		tb.Fatalf("saturated run with %d workers completed no request", workers)
	}
	shedAfter := serveShedCounts()
	tb.Logf("saturated ×%d: %d scored, %d shed (queue_full %+.0f, deadline %+.0f)",
		workers, len(latencies), shed,
		shedAfter[serveShedQueueFull]-shedBefore[serveShedQueueFull],
		shedAfter[serveShedDeadline]-shedBefore[serveShedDeadline])
	offered := float64(len(latencies)+shed) * reqRows / elapsed.Seconds()
	return loadPointMetrics(offered, latencies, waits, shed)
}

// Shed-reason label values of serve_shed_total (mirrors internal/serve).
const (
	serveShedQueueFull = "queue_full"
	serveShedDeadline  = "deadline"
)

// serveShedCounts reads serve_shed_total by reason from the obs registry.
func serveShedCounts() map[string]float64 {
	out := map[string]float64{}
	obs.Default.Collect(func(p obs.SamplePoint) {
		if p.Name == "serve_shed_total" && len(p.Values) == 1 {
			out[p.Values[0]] = p.Value
		}
	})
	return out
}

// randServeVectors builds n random width-wide rows.
func randServeVectors(rng *rand.Rand, n, width int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		v := make([]float64, width)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		out[i] = v
	}
	return out
}

// saturatedTierConfig is the overload point's tier, whose flush batch
// costs ~16ms of scoring — past the runtime's async-preemption quantum,
// so competing clients get scheduled against an in-progress flush and
// their reservations pile up at the admission bound. With the default
// 4ms flush a single-core scheduler alternates one admission with one
// staging and the queue can never fill no matter the demand; on
// multi-core hardware the interleaving happens naturally.
func saturatedTierConfig() serve.Config {
	cfg := serve.DefaultConfig()
	cfg.MaxBatch *= 4
	cfg.MaxQueue = cfg.MaxBatch
	return cfg
}

// measureServingLoad drives the tier directly: it measures the scoring
// ceiling, paces an open-loop generator at 0.5× and 1× of it, then
// saturates a saturatedTierConfig tier with standing closed-loop demand.
func measureServingLoad(t *testing.T) benchMetrics {
	p := servingModel(t)
	width := len(p.FeatureNames())
	tierCfg := serve.DefaultConfig()
	tier := serve.NewTier(p, tierCfg)
	defer tier.Stop()
	ceiling := measureScoreCeiling(t, p, width, tierCfg.MaxBatch)
	t.Logf("scoring ceiling: %.0f rows/s", ceiling)
	m := benchMetrics{}
	m["ServeOpenLoopHalf"] = runOpenLoop(t, tier, width, 0.5*ceiling, 1200*time.Millisecond)
	m["ServeOpenLoop1x"] = runOpenLoop(t, tier, width, ceiling, 1200*time.Millisecond)

	satTier := serve.NewTier(p, saturatedTierConfig())
	defer satTier.Stop()
	sat := runSaturated(t, satTier, width, 256, 1200*time.Millisecond)
	sat["ceiling_rows_per_s"] = ceiling
	m["ServeSaturated"] = sat
	return m
}

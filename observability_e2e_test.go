package prodigy

// End-to-end demo of the model-health observability stack (DESIGN.md §13):
// one core.Prodigy wired to the in-process tsdb, the alert engine and the
// HTTP server exactly as cmd/prodigyd wires them — but on an injected
// clock, so the scrape loop and alert evaluation run deterministically
// and the test never sleeps.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"prodigy/internal/core"
	"prodigy/internal/dsos"
	"prodigy/internal/mat"
	"prodigy/internal/obs/alert"
	"prodigy/internal/obs/tsdb"
	"prodigy/internal/pipeline"
	"prodigy/internal/server"
	"prodigy/internal/vae"
)

// e2eClock is a mutex-guarded fake clock injected into the tsdb store.
type e2eClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *e2eClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *e2eClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// e2eProdigy trains a small Prodigy on a synthetic labeled dataset —
// enough structure for chi-square selection and a stable VAE fit without
// running the full campaign simulator.
func e2eProdigy(t *testing.T) *core.Prodigy {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	n, dim := 256, 60
	ds := &pipeline.Dataset{X: mat.Randn(n, dim, 1, rng), FeatureNames: make([]string, dim)}
	for j := range ds.FeatureNames {
		ds.FeatureNames[j] = fmt.Sprintf("f%02d", j)
	}
	ds.Meta = make([]pipeline.SampleMeta, n)
	for i := range ds.Meta {
		ds.Meta[i].Label = pipeline.Healthy
		if i%10 == 0 {
			ds.Meta[i].Label = pipeline.Anomalous
		}
	}
	cfg := core.DefaultConfig()
	cfg.VAE = vae.Config{
		HiddenDims: []int{24}, LatentDim: 4, Activation: "tanh",
		LearningRate: 3e-3, BatchSize: 64, Epochs: 30, ClipNorm: 5, Seed: 1,
	}
	cfg.Trainer = pipeline.TrainerConfig{TopK: 40, ThresholdPercentile: 99, ScalerKind: "minmax"}
	p := core.New(cfg)
	if err := p.Fit(ds, nil); err != nil {
		t.Fatal(err)
	}
	return p
}

// e2eTraffic builds a healthy batch drawn from the training distribution
// and a degenerate variant far outside it.
func e2eTraffic() (healthy, shifted *mat.Matrix) {
	rng := rand.New(rand.NewSource(11))
	healthy = mat.Randn(64, 60, 1, rng)
	shifted = &mat.Matrix{Rows: healthy.Rows, Cols: healthy.Cols, Data: append([]float64(nil), healthy.Data...)}
	for i := range shifted.Data {
		shifted.Data[i] = shifted.Data[i]*10 + 100
	}
	return healthy, shifted
}

func e2eGet(t *testing.T, srv http.Handler, path string) (int, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec.Code, rec.Body.Bytes()
}

// e2eScore posts the rows of x to /api/score.
func e2eScore(t *testing.T, srv http.Handler, x *mat.Matrix) {
	t.Helper()
	vectors := make([][]float64, x.Rows)
	for i := range vectors {
		vectors[i] = x.Row(i)
	}
	body, err := json.Marshal(map[string][][]float64{"vectors": vectors})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/score", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("/api/score: status %d: %s", rec.Code, rec.Body.Bytes())
	}
}

type alertsPayload struct {
	Firing int `json:"firing"`
	Alerts []struct {
		Rule struct {
			Name string `json:"name"`
		} `json:"rule"`
		State     string  `json:"state"`
		Value     float64 `json:"value"`
		Evaluable bool    `json:"evaluable"`
	} `json:"alerts"`
}

func e2eAlerts(t *testing.T, srv http.Handler) alertsPayload {
	t.Helper()
	code, body := e2eGet(t, srv, "/api/alerts")
	if code != http.StatusOK {
		t.Fatalf("/api/alerts: status %d: %s", code, body)
	}
	var resp alertsPayload
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestObservabilityEndToEnd drives the full demo: score traffic through
// /api/score and read it back on /api/timeseries, check that healthy
// traffic leaves the score-shift alert quiet — its baseline is the
// healthy training scores, so it is evaluable right after the one Fit —
// push a degenerate score distribution through the deployed model until
// the alert fires on /api/alerts, and render the self-contained
// dashboard.
func TestObservabilityEndToEnd(t *testing.T) {
	p := e2eProdigy(t)
	healthy, shifted := e2eTraffic()
	clk := &e2eClock{t: time.Unix(1750000000, 0)}

	// Wire tsdb → alert engine → server the way cmd/prodigyd does: every
	// scrape triggers one alert evaluation at the scrape timestamp.
	var eng *alert.Engine
	store := tsdb.New(nil, tsdb.Config{
		Interval:    5 * time.Second,
		Retention:   512,
		Now:         clk.Now,
		AfterScrape: func(ts time.Time) { eng.Eval(ts) },
	})
	eng = alert.NewEngine(store, p.ScoreShift, nil)
	if err := eng.SetRules([]alert.Rule{{
		Name:      "score-distribution-shift",
		Kind:      alert.KindScoreShift,
		Threshold: 0.01, // KS p-value
		MinCount:  128,
		Severity:  "page",
	}}); err != nil {
		t.Fatal(err)
	}
	srv := server.New(dsos.NewStore(), p)
	srv.TSDB = store
	srv.Alerts = eng

	// step posts one batch to /api/score, advances the clock one scrape
	// interval and scrapes — one tick of production time.
	step := func(x *mat.Matrix, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			e2eScore(t, srv, x)
			clk.Advance(5 * time.Second)
			store.ScrapeOnce()
		}
	}

	// 1. Healthy traffic lands in the store: the scoring-latency histogram
	// is queryable over time via /api/timeseries.
	step(healthy, 4)
	code, body := e2eGet(t, srv,
		"/api/timeseries?name=pipeline_batch_score_seconds_count&agg=rate&window=30s&path=serial")
	if code != http.StatusOK {
		t.Fatalf("/api/timeseries: status %d: %s", code, body)
	}
	var ts struct {
		Series []struct {
			Points []struct {
				V float64 `json:"v"`
			} `json:"points"`
		} `json:"series"`
	}
	if err := json.Unmarshal(body, &ts); err != nil {
		t.Fatal(err)
	}
	if len(ts.Series) == 0 || len(ts.Series[0].Points) == 0 {
		t.Fatalf("scoring latency series empty after traffic: %s", body)
	}
	last := ts.Series[0].Points[len(ts.Series[0].Points)-1]
	if last.V <= 0 {
		t.Fatalf("scoring batch rate not positive: %v", last.V)
	}

	// 2. Healthy traffic matches the training baseline: the rule is
	// evaluable and quiet.
	step(healthy, 3)
	a := e2eAlerts(t, srv)
	if a.Firing != 0 || len(a.Alerts) != 1 {
		t.Fatalf("alert firing on healthy traffic: %+v", a)
	}
	if al := a.Alerts[0]; !al.Evaluable || al.State != "inactive" || al.Value < 0.01 {
		t.Fatalf("score-shift rule on healthy traffic: %+v", a.Alerts[0])
	}

	// 3. Degenerate traffic — inputs far outside the training range blow
	// up the reconstruction error and shift the live score distribution.
	// With For=0 the rule fires as soon as the sketch carries MinCount
	// observations of the shifted shape.
	step(shifted, 6)
	a = e2eAlerts(t, srv)
	if a.Firing != 1 || len(a.Alerts) != 1 {
		t.Fatalf("score-shift alert not firing after degenerate traffic: %+v", a)
	}
	if a.Alerts[0].Rule.Name != "score-distribution-shift" || a.Alerts[0].State != "firing" {
		t.Fatalf("wrong alert fired: %+v", a.Alerts[0])
	}
	if a.Alerts[0].Value >= 0.01 {
		t.Fatalf("firing alert carries non-significant p-value %v", a.Alerts[0].Value)
	}

	// 4. The dashboard renders self-contained: no external assets.
	code, body = e2eGet(t, srv, "/dashboard")
	if code != http.StatusOK {
		t.Fatalf("/dashboard: status %d", code)
	}
	page := string(body)
	if !strings.Contains(page, "Prodigy model health") {
		t.Fatal("dashboard missing title")
	}
	for _, banned := range []string{"<link", "src=", "@import", "url("} {
		if strings.Contains(page, banned) {
			t.Errorf("dashboard contains external-asset marker %q", banned)
		}
	}
	stripped := strings.ReplaceAll(page, "http://www.w3.org/2000/svg", "")
	if strings.Contains(stripped, "http://") || strings.Contains(stripped, "https://") {
		t.Error("dashboard references an absolute URL")
	}
}

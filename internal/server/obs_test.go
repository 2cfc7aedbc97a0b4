package server_test

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	// Linked so the streaming detector's metric families (online_*) are
	// registered and appear on /metrics, as they do in prodigyd.
	_ "prodigy/internal/online"
)

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestMetricsExposition asserts /metrics serves valid Prometheus text
// exposition carrying the acceptance-criteria metric families from every
// instrumented layer: HTTP serving, scoring pipeline, model deployment
// and the streaming detector.
func TestMetricsExposition(t *testing.T) {
	ts, anomJob, _ := deploy(t)
	// Drive one dashboard request so HTTP and scoring series exist.
	getJSON(t, fmt.Sprintf("%s/api/jobs/%d/anomalies", ts.URL, anomJob), 200)

	status, body := getBody(t, ts.URL+"/metrics")
	if status != 200 {
		t.Fatalf("/metrics status %d", status)
	}
	for _, want := range []string{
		"# TYPE http_request_duration_seconds histogram",
		`http_request_duration_seconds_bucket{route="/api/jobs/{id}/anomalies",le="+Inf"}`,
		"# TYPE prodigy_scores_total counter",
		"# TYPE prodigy_model_features gauge",
		"# TYPE online_ingest_lag_seconds histogram",
		"# TYPE prodigy_score_error histogram",
		"# TYPE prodigy_model_threshold gauge",
		"# TYPE nn_train_loss gauge",
		"# TYPE span_duration_seconds histogram",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Minimal format validity: every non-comment line is `name{...} value`
	// or `name value` (label values may legally contain spaces, so strip
	// the label block before splitting).
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		rest := line
		if i := strings.IndexByte(line, '{'); i >= 0 {
			j := strings.LastIndexByte(line, '}')
			if j < i {
				t.Errorf("unbalanced label block in %q", line)
				continue
			}
			rest = line[:i] + line[j+1:]
		}
		if fields := strings.Fields(rest); len(fields) != 2 {
			t.Errorf("malformed exposition line %q", line)
		}
	}
}

// TestHealthSnapshotMetadata asserts /api/health reports the deployed
// model snapshot, not a bare OK.
func TestHealthSnapshotMetadata(t *testing.T) {
	ts, _, _ := deploy(t)
	health := getJSON(t, ts.URL+"/api/health", 200)
	if health["trained"] != true {
		t.Fatalf("health = %v", health)
	}
	if th := health["threshold"].(float64); th <= 0 {
		t.Fatalf("threshold = %v, want > 0", th)
	}
	if f := health["features"].(float64); f <= 0 {
		t.Fatalf("features = %v, want > 0", f)
	}
	if up, ok := health["uptime_seconds"].(float64); !ok || up <= 0 {
		t.Fatalf("uptime_seconds = %v", health["uptime_seconds"])
	}
}

// TestErrorCounterMoves is the regression test for the writeError fix: a
// malformed /api/jobs/{id} request must increment
// http_errors_total{route="/api/jobs/{id}/anomalies",class="4xx"} — errors
// must be distinguishable from silence.
func TestErrorCounterMoves(t *testing.T) {
	ts, _, _ := deploy(t)
	const series = `http_errors_total{route="/api/jobs/{id}/anomalies",class="4xx"}`

	before := counterValue(t, ts.URL, series)
	getJSON(t, ts.URL+"/api/jobs/notanumber/anomalies", 400)
	getJSON(t, ts.URL+"/api/jobs/notanumber/anomalies", 400)
	after := counterValue(t, ts.URL, series)
	if after != before+2 {
		t.Fatalf("%s = %v, want %v", series, after, before+2)
	}

	// 404s on an unknown analysis land on the {id}/other route.
	otherSeries := `http_errors_total{route="/api/jobs/{id}/other",class="4xx"}`
	b := counterValue(t, ts.URL, otherSeries)
	getJSON(t, ts.URL+"/api/jobs/3/bogus", 404)
	if a := counterValue(t, ts.URL, otherSeries); a != b+1 {
		t.Fatalf("%s = %v, want %v", otherSeries, a, b+1)
	}
}

// counterValue scrapes /metrics and returns the value of one series (0 if
// absent — counters are born on first increment).
func counterValue(t *testing.T, baseURL, series string) float64 {
	t.Helper()
	_, body := getBody(t, baseURL+"/metrics")
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, series+" ") {
			var v float64
			if _, err := fmt.Sscanf(line[len(series)+1:], "%g", &v); err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			return v
		}
	}
	return 0
}

func TestDebugEndpoints(t *testing.T) {
	ts, _, _ := deploy(t)
	if status, body := getBody(t, ts.URL+"/debug/vars"); status != 200 || !strings.Contains(body, "prodigy_metrics") {
		t.Fatalf("/debug/vars status %d, body %.120s", status, body)
	}
	if status, body := getBody(t, ts.URL+"/debug/pprof/"); status != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ status %d, body %.120s", status, body)
	}
}

package server_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"prodigy/internal/cluster"
	"prodigy/internal/comte"
	"prodigy/internal/core"
	"prodigy/internal/dsos"
	"prodigy/internal/features"
	"prodigy/internal/hpas"
	"prodigy/internal/ldms"
	"prodigy/internal/pipeline"
	"prodigy/internal/server"
	"prodigy/internal/vae"
)

// deploy builds a small store + trained model + server, returning the
// anomalous job's ID and one of its anomalous components.
func deploy(t *testing.T) (*httptest.Server, int64, int) {
	t.Helper()
	srv, anomJob, anomComp := deployServer(t)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, anomJob, anomComp
}

// deployServer is deploy without the HTTP wrapper, for tests that need to
// configure the server (e.g. arm the drift monitor) before serving.
func deployServer(t *testing.T) (*server.Server, int64, int) {
	t.Helper()
	sys := cluster.NewSystem("test", 8, cluster.EclipseNode())
	store := dsos.NewStore()
	builder := pipeline.NewDatasetBuilder(store)
	builder.Gen.TrimSeconds = 20
	builder.Pipe.Catalog = features.Minimal()

	var anomJob int64
	var anomComp int
	submit := func(app string, inj hpas.Injector) {
		job, err := sys.Submit(app, 4, 140, 9)
		if err != nil {
			t.Fatal(err)
		}
		truth := map[int][2]string{}
		if inj != nil {
			anomJob = job.ID
			anomComp = job.Nodes[0]
			for _, n := range job.Nodes[:2] {
				job.Injectors[n] = inj
				truth[n] = [2]string{inj.Name(), inj.Config()}
			}
		}
		sys.CollectJob(job, ldms.CollectConfig{DropProb: 0.01, Seed: 9 + job.ID}, store)
		builder.AddJob(job.ID, app, truth)
		if err := sys.Complete(job.ID); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		submit("lammps", nil)
		submit("sw4", nil)
	}
	submit("lammps", hpas.Memleak{SizeMB: 10, Period: 0.05})

	ds, err := builder.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.VAE = vae.Config{
		HiddenDims: []int{24}, LatentDim: 4, Activation: "tanh",
		LearningRate: 3e-3, BatchSize: 16, Epochs: 250, Beta: 1e-3, ClipNorm: 5, Seed: 1,
	}
	cfg.Trainer = pipeline.TrainerConfig{TopK: 40, ThresholdPercentile: 99, ScalerKind: "minmax"}
	cfg.Explain = comte.Config{MaxMetrics: 8, NumDistractors: 3, Restarts: 3, Seed: 1}
	cfg.Catalog = features.Minimal()
	cfg.TrimSeconds = 20
	p := core.New(cfg)
	if err := p.Fit(ds, nil); err != nil {
		t.Fatal(err)
	}
	p.TuneThreshold(ds)

	return server.New(store, p), anomJob, anomComp
}

func getJSON(t *testing.T, url string, wantStatus int) map[string]interface{} {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	var out map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return out
}

func TestHealthAndJobs(t *testing.T) {
	ts, _, _ := deploy(t)
	health := getJSON(t, ts.URL+"/api/health", 200)
	if health["trained"] != true {
		t.Fatalf("health = %v", health)
	}
	if health["jobs"].(float64) != 7 {
		t.Fatalf("jobs = %v", health["jobs"])
	}
	jobs := getJSON(t, ts.URL+"/api/jobs", 200)
	if len(jobs["jobs"].([]interface{})) != 7 {
		t.Fatalf("jobs list = %v", jobs["jobs"])
	}
}

func TestJobInfo(t *testing.T) {
	ts, anomJob, _ := deploy(t)
	info := getJSON(t, fmt.Sprintf("%s/api/jobs/%d", ts.URL, anomJob), 200)
	comps := info["components"].([]interface{})
	if len(comps) != 4 {
		t.Fatalf("components = %v", comps)
	}
}

func TestAnomaliesDashboard(t *testing.T) {
	ts, anomJob, _ := deploy(t)
	out := getJSON(t, fmt.Sprintf("%s/api/jobs/%d/anomalies", ts.URL, anomJob), 200)
	nodes := out["nodes"].([]interface{})
	if len(nodes) != 4 {
		t.Fatalf("nodes = %v", nodes)
	}
	flagged := 0
	for _, n := range nodes {
		node := n.(map[string]interface{})
		if node["anomalous"] == true {
			flagged++
		}
		if node["score"].(float64) < 0 {
			t.Fatal("negative score")
		}
	}
	if flagged == 0 {
		t.Fatal("memleak job should have flagged nodes")
	}
}

func TestExplainEndpoint(t *testing.T) {
	ts, anomJob, anomComp := deploy(t)
	out := getJSON(t, fmt.Sprintf("%s/api/jobs/%d/explain?component=%d", ts.URL, anomJob, anomComp), 200)
	metrics := out["metrics"].([]interface{})
	if len(metrics) == 0 {
		t.Fatalf("explanation = %v", out)
	}
	if out["score_before"].(float64) <= out["score_after"].(float64) {
		t.Fatal("explanation must reduce the score")
	}
}

func TestMetricsEndpoint(t *testing.T) {
	ts, anomJob, anomComp := deploy(t)
	url := fmt.Sprintf("%s/api/jobs/%d/metrics?component=%d&metric=MemFree::meminfo", ts.URL, anomJob, anomComp)
	out := getJSON(t, url, 200)
	values := out["values"].([]interface{})
	tsAxis := out["timestamps"].([]interface{})
	if len(values) == 0 || len(values) != len(tsAxis) {
		t.Fatalf("series lengths %d vs %d", len(values), len(tsAxis))
	}
}

func TestErrorPaths(t *testing.T) {
	ts, anomJob, _ := deploy(t)
	cases := []struct {
		path   string
		status int
	}{
		{"/api/jobs/notanumber/anomalies", 400},
		{"/api/jobs/99999/anomalies", 404},
		{fmt.Sprintf("/api/jobs/%d/unknown", anomJob), 404},
		{fmt.Sprintf("/api/jobs/%d/explain", anomJob), 400},             // missing component
		{fmt.Sprintf("/api/jobs/%d/metrics?component=0", anomJob), 400}, // missing metric
		{fmt.Sprintf("/api/jobs/%d/metrics?component=0&metric=unqualified", anomJob), 400},
		{fmt.Sprintf("/api/jobs/%d/metrics?component=0&metric=nope::meminfo", anomJob), 404},
	}
	for _, c := range cases {
		out := getJSON(t, ts.URL+c.path, c.status)
		if out["error"] == "" {
			t.Errorf("%s: missing error message", c.path)
		}
	}
}

func TestUntrainedModelRejected(t *testing.T) {
	store := dsos.NewStore()
	srv := httptest.NewServer(server.New(store, core.New(core.DefaultConfig())))
	defer srv.Close()
	getJSON(t, srv.URL+"/api/jobs/1/anomalies", http.StatusServiceUnavailable)
	health := getJSON(t, srv.URL+"/api/health", 200)
	if health["trained"] != false {
		t.Fatal("untrained model should report trained=false")
	}
}

package server_test

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"prodigy/internal/cluster"
	"prodigy/internal/comte"
	"prodigy/internal/core"
	"prodigy/internal/diagnose"
	"prodigy/internal/drift"
	"prodigy/internal/dsos"
	"prodigy/internal/features"
	"prodigy/internal/hpas"
	"prodigy/internal/ldms"
	"prodigy/internal/pipeline"
	"prodigy/internal/server"
	"prodigy/internal/vae"
)

// deployFull builds a server with diagnoser and drift monitor attached.
// The campaign carries two anomaly types so the diagnoser can be fitted.
func deployFull(t *testing.T) (*httptest.Server, int64, int, string) {
	t.Helper()
	sys := cluster.NewSystem("test", 8, cluster.EclipseNode())
	store := dsos.NewStore()
	builder := pipeline.NewDatasetBuilder(store)
	builder.Gen.TrimSeconds = 20
	builder.Pipe.Catalog = features.Minimal()

	var leakJob int64
	var leakComp int
	submit := func(app string, inj hpas.Injector) {
		job, err := sys.Submit(app, 4, 140, 61)
		if err != nil {
			t.Fatal(err)
		}
		truth := map[int][2]string{}
		if inj != nil {
			if inj.Name() == "memleak" {
				leakJob = job.ID
				leakComp = job.Nodes[0]
			}
			for _, n := range job.Nodes[:2] {
				job.Injectors[n] = inj
				truth[n] = [2]string{inj.Name(), inj.Config()}
			}
		}
		sys.CollectJob(job, ldms.CollectConfig{DropProb: 0.005, Seed: 61 + job.ID}, store)
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
	submit("sw4", hpas.CPUOccupy{Utilization: 1})
	submit("lammps", hpas.Memleak{SizeMB: 10, Period: 0.1})
	submit("sw4", hpas.CPUOccupy{Utilization: 0.8})

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

	diagnoser, err := diagnose.New(ds, 3)
	if err != nil {
		t.Fatal(err)
	}
	healthy := ds.Subset(ds.HealthyIndices())
	mon, err := drift.NewMonitor(p.Scores(healthy.X), 200, drift.Config{MaxPValue: 0.01, MaxPSI: 0.25, MinSamples: 5})
	if err != nil {
		t.Fatal(err)
	}

	srv := server.New(store, p)
	srv.Diagnoser = diagnoser
	srv.Drift = mon
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	healthyJob := store.Jobs()[0]
	_ = healthyJob
	return ts, leakJob, leakComp, "memleak"
}

func TestDiagnoseEndpoint(t *testing.T) {
	ts, leakJob, leakComp, wantType := deployFull(t)
	out := getJSON(t, fmt.Sprintf("%s/api/jobs/%d/diagnose?component=%d", ts.URL, leakJob, leakComp), 200)
	if out["type"] != wantType {
		t.Fatalf("diagnosis = %v, want %s", out["type"], wantType)
	}
	if out["confidence"].(float64) <= 0.33 {
		t.Fatalf("confidence = %v", out["confidence"])
	}
	votes := out["votes"].(map[string]interface{})
	if len(votes) < 2 {
		t.Fatalf("votes = %v", votes)
	}
}

func TestDiagnoseRejectsHealthyNode(t *testing.T) {
	ts, leakJob, _, _ := deployFull(t)
	// Components 2 and 3 of the leak job are healthy.
	out := getJSON(t, fmt.Sprintf("%s/api/jobs/%d/diagnose?component=3", ts.URL, leakJob),
		http.StatusUnprocessableEntity)
	if out["error"] == nil {
		t.Fatal("expected error payload")
	}
}

func TestDiagnoseMissingComponentParam(t *testing.T) {
	ts, leakJob, _, _ := deployFull(t)
	getJSON(t, fmt.Sprintf("%s/api/jobs/%d/diagnose", ts.URL, leakJob), http.StatusBadRequest)
}

func TestDriftEndpointAccumulates(t *testing.T) {
	ts, leakJob, _, _ := deployFull(t)
	// Before any dashboard queries, the window is empty.
	out := getJSON(t, ts.URL+"/api/drift", 200)
	if out["window"].(float64) != 0 {
		t.Fatalf("window = %v", out["window"])
	}
	// Dashboard queries feed healthy-predicted scores into the monitor.
	getJSON(t, fmt.Sprintf("%s/api/jobs/%d/anomalies", ts.URL, leakJob), 200)
	out = getJSON(t, ts.URL+"/api/drift", 200)
	if out["window"].(float64) == 0 {
		t.Fatal("window should have accumulated healthy scores")
	}
	if out["drifted"] == nil {
		t.Fatal("missing drifted field")
	}
}

func TestDiagnoseAndDriftNotConfigured(t *testing.T) {
	ts, anomJob, _ := deploy(t) // the plain deployment without extras
	getJSON(t, fmt.Sprintf("%s/api/jobs/%d/diagnose?component=0", ts.URL, anomJob), http.StatusNotImplemented)
	getJSON(t, ts.URL+"/api/drift", http.StatusNotImplemented)
}

package online_test

import (
	"sync"
	"testing"

	"prodigy/internal/cluster"
	"prodigy/internal/core"
	"prodigy/internal/dsos"
	"prodigy/internal/features"
	"prodigy/internal/hpas"
	"prodigy/internal/ldms"
	"prodigy/internal/online"
	"prodigy/internal/pipeline"
	"prodigy/internal/vae"
)

// trainWindowModel builds a window-level training campaign (healthy +
// memleak jobs), trains a Prodigy on the window dataset, and returns it
// with the streaming config.
func trainWindowModel(t *testing.T, seed int64) (*core.Prodigy, online.Config, *cluster.System) {
	t.Helper()
	sys := cluster.NewSystem("test", 8, cluster.EclipseNode())
	store := dsos.NewStore()
	truth := map[int64]map[int][2]string{}
	appsByJob := map[int64]string{}

	submit := func(app string, inj hpas.Injector) {
		job, err := sys.Submit(app, 4, 150, seed)
		if err != nil {
			t.Fatal(err)
		}
		jobTruth := map[int][2]string{}
		if inj != nil {
			for _, n := range job.Nodes[:2] {
				job.Injectors[n] = inj
				jobTruth[n] = [2]string{inj.Name(), inj.Config()}
			}
		}
		sys.CollectJob(job, ldms.CollectConfig{DropProb: 0.005, Seed: seed + job.ID}, store)
		truth[job.ID] = jobTruth
		appsByJob[job.ID] = app
		if err := sys.Complete(job.ID); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		submit("lammps", nil)
		submit("sw4", nil)
	}
	submit("lammps", hpas.Memleak{SizeMB: 10, Period: 0.05})

	ocfg := online.Config{Window: 40, Stride: 20, Grace: 2, Catalog: features.Minimal()}
	ds, err := online.BuildWindowDataset(store, truth, appsByJob, ocfg)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() < 50 {
		t.Fatalf("only %d windows extracted", ds.Len())
	}

	cfg := core.DefaultConfig()
	cfg.VAE = vae.Config{
		HiddenDims: []int{24}, LatentDim: 4, Activation: "tanh",
		LearningRate: 3e-3, BatchSize: 32, Epochs: 200, Beta: 1e-3, ClipNorm: 5, Seed: 1,
	}
	cfg.Trainer = pipeline.TrainerConfig{TopK: 40, ThresholdPercentile: 99, ScalerKind: "minmax"}
	cfg.Catalog = features.Minimal()
	p := core.New(cfg)
	if err := p.Fit(ds, nil); err != nil {
		t.Fatal(err)
	}
	p.TuneThreshold(ds)
	return p, ocfg, sys
}

func TestNewDetectorValidation(t *testing.T) {
	if _, err := online.NewDetector(online.Config{Window: 0, Stride: 1}, nil, nil); err == nil {
		t.Fatal("zero window should error")
	}
	if _, err := online.NewDetector(online.Config{Window: 10, Stride: 10}, nil, nil); err == nil {
		t.Fatal("nil model should error")
	}
}

// TestStreamingDetection runs a fresh anomalous job through the live
// collection path with the detector as the sink, and checks the emitted
// window events flag the injected nodes.
func TestStreamingDetection(t *testing.T) {
	p, ocfg, sys := trainWindowModel(t, 41)

	var mu sync.Mutex
	var events []online.Event
	det, err := online.NewDetector(ocfg, p, func(ev online.Event) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}

	// A new job: memleak on its first two nodes, streamed straight into
	// the detector (no store involved).
	job, err := sys.Submit("lammps", 4, 150, 77)
	if err != nil {
		t.Fatal(err)
	}
	leak := hpas.Memleak{SizeMB: 10, Period: 0.05}
	injected := map[int]bool{}
	for _, n := range job.Nodes[:2] {
		job.Injectors[n] = leak
		injected[n] = true
	}
	sys.CollectJob(job, ldms.CollectConfig{DropProb: 0.005, Seed: 77}, det)
	det.Flush()

	mu.Lock()
	defer mu.Unlock()
	if len(events) == 0 {
		t.Fatal("no window events emitted")
	}
	// Every node should produce several windows over a 150 s run with
	// stride 20.
	perNode := map[int]int{}
	flaggedPerNode := map[int]int{}
	for _, ev := range events {
		if ev.JobID != job.ID {
			t.Fatalf("event for wrong job: %+v", ev)
		}
		perNode[ev.Component]++
		if ev.Anomalous {
			flaggedPerNode[ev.Component]++
		}
		if ev.WindowEnd-ev.WindowStart != ocfg.Window {
			t.Fatalf("window size wrong: %+v", ev)
		}
	}
	for _, n := range job.Nodes {
		if perNode[n] < 3 {
			t.Fatalf("node %d produced only %d windows", n, perNode[n])
		}
	}
	// Injected nodes must be flagged in at least one window (the leak
	// grows, so late windows are the most anomalous); healthy nodes must
	// be mostly clean.
	for n := range injected {
		if flaggedPerNode[n] == 0 {
			t.Fatalf("injected node %d never flagged (windows: %d)", n, perNode[n])
		}
	}
	for _, n := range job.Nodes {
		if injected[n] {
			continue
		}
		if flaggedPerNode[n] > perNode[n]/2 {
			t.Fatalf("healthy node %d flagged in %d/%d windows", n, flaggedPerNode[n], perNode[n])
		}
	}
}

// TestStreamingEventOrderAndMemory checks windows advance by stride and
// old rows are discarded.
func TestStreamingWindowsAdvance(t *testing.T) {
	p, ocfg, sys := trainWindowModel(t, 42)
	var events []online.Event
	det, err := online.NewDetector(ocfg, p, func(ev online.Event) { events = append(events, ev) })
	if err != nil {
		t.Fatal(err)
	}
	job, err := sys.Submit("sw4", 1, 150, 5)
	if err != nil {
		t.Fatal(err)
	}
	sys.CollectJob(job, ldms.CollectConfig{Seed: 5}, det)
	det.Flush()
	if len(events) < 4 {
		t.Fatalf("%d events", len(events))
	}
	for i := 1; i < len(events); i++ {
		if events[i].WindowStart != events[i-1].WindowStart+ocfg.Stride {
			t.Fatalf("windows not advancing by stride: %+v then %+v", events[i-1], events[i])
		}
	}
}

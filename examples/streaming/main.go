// Streaming: online anomaly detection while jobs run. The detector plugs
// into the LDMS aggregation fan-in as a sink, keeps a sliding window per
// compute node, and emits a prediction every stride — catching a growing
// memory leak minutes before the job would have finished.
package main

import (
	"fmt"
	"log"
	"sync"

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

func main() {
	sys := cluster.NewSystem("stream-demo", 8, cluster.EclipseNode())
	store := dsos.NewStore()

	// --- Offline: collect healthy history and one labeled anomalous job,
	// then train a *window-level* model. ---
	truth := map[int64]map[int][2]string{}
	appsByJob := map[int64]string{}
	submit := func(app string, inj hpas.Injector, sink ldms.Sink) *cluster.Job {
		job, err := sys.Submit(app, 4, 160, int64(len(appsByJob))+1)
		if err != nil {
			log.Fatal(err)
		}
		jobTruth := map[int][2]string{}
		if inj != nil {
			for _, n := range job.Nodes[:2] {
				job.Injectors[n] = inj
				jobTruth[n] = [2]string{inj.Name(), inj.Config()}
			}
		}
		sys.CollectJob(job, ldms.CollectConfig{DropProb: 0.005, Seed: job.ID}, sink)
		truth[job.ID] = jobTruth
		appsByJob[job.ID] = app
		if err := sys.Complete(job.ID); err != nil {
			log.Fatal(err)
		}
		return job
	}
	for i := 0; i < 4; i++ {
		submit("lammps", nil, store)
	}
	submit("lammps", hpas.Memleak{SizeMB: 10, Period: 0.05}, store)

	ocfg := online.Config{Window: 40, Stride: 20, Grace: 2, Catalog: features.Minimal()}
	ds, err := online.BuildWindowDataset(store, truth, appsByJob, ocfg)
	if err != nil {
		log.Fatal(err)
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
		log.Fatal(err)
	}
	p.TuneThreshold(ds)
	fmt.Printf("window model trained on %d windows (threshold %.5f)\n\n", ds.Len(), p.Threshold())

	// --- Online: a new job leaks memory on node 0; the detector watches
	// the live row stream. ---
	var mu sync.Mutex
	firstFlag := map[int]int64{}
	det, err := online.NewDetector(ocfg, p, func(ev online.Event) {
		mu.Lock()
		defer mu.Unlock()
		state := "ok     "
		if ev.Anomalous {
			state = "ANOMALY"
			if _, seen := firstFlag[ev.Component]; !seen {
				firstFlag[ev.Component] = ev.WindowEnd
			}
		}
		fmt.Printf("t=%3d..%3ds node %d: %s score=%.5f\n", ev.WindowStart, ev.WindowEnd, ev.Component, state, ev.Score)
	})
	if err != nil {
		log.Fatal(err)
	}
	job, err := sys.Submit("lammps", 2, 160, 99)
	if err != nil {
		log.Fatal(err)
	}
	job.Injectors[job.Nodes[0]] = hpas.Memleak{SizeMB: 10, Period: 0.05}
	fmt.Printf("streaming job %d (leak on node %d)...\n", job.ID, job.Nodes[0])
	sys.CollectJob(job, ldms.CollectConfig{DropProb: 0.005, Seed: 99}, det)
	det.Flush()

	if ts, ok := firstFlag[job.Nodes[0]]; ok {
		fmt.Printf("\nleaking node flagged %d seconds into a 160-second run\n", ts)
	} else {
		fmt.Println("\nleaking node was not flagged — try another seed")
	}
}

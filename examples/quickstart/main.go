// Quickstart: the smallest end-to-end Prodigy flow. Simulate a mini
// Eclipse campaign (healthy runs plus one memory-leak job), train the VAE
// on the healthy samples, and detect the anomalous nodes.
package main

import (
	"fmt"
	"log"

	"prodigy/internal/core"
	"prodigy/internal/experiments"
	"prodigy/internal/features"
	"prodigy/internal/hpas"
)

func main() {
	// 1. Collect telemetry: a small campaign over the simulated Eclipse
	// system — 4-node jobs, one in four with an injected memleak.
	campaign := experiments.CampaignConfig{
		System:           "eclipse",
		Apps:             []string{"lammps", "sw4"},
		JobsPerApp:       6,
		NodesPerJob:      4,
		Duration:         180,
		AnomalousJobFrac: 0.25,
		Injectors:        []hpas.Injector{hpas.Memleak{SizeMB: 10, Period: 0.1}},
		Seed:             42,
		Catalog:          features.Minimal(),
	}
	camp, err := experiments.Generate(campaign)
	if err != nil {
		log.Fatal(err)
	}
	ds := camp.Dataset
	fmt.Printf("campaign: %d samples (%d healthy, %d anomalous), %d features\n",
		ds.Len(), len(ds.HealthyIndices()), len(ds.AnomalousIndices()), ds.X.Cols)

	// 2. Train: chi-square feature selection uses the labeled campaign;
	// the VAE itself sees only healthy samples (§3.3).
	cfg := experiments.ProdigyConfig(experiments.Quick, campaign, 42)
	experiments.TopKFor(&cfg, ds.X.Cols)
	p := core.New(cfg)
	if err := p.Fit(ds, nil); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained VAE; anomaly threshold = %.5f\n", p.Threshold())

	// 3. Detect: reconstruction error above the threshold flags a node.
	preds, scores, _ := p.DetectBatch(ds.X)
	correct := 0
	for i, m := range ds.Meta {
		if preds[i] == m.Label {
			correct++
		}
		if m.Label == 1 || preds[i] == 1 {
			fmt.Printf("  job %-3d node %-3d truth=%-8s predicted=%d score=%.5f\n",
				m.JobID, m.Component, m.Anomaly, preds[i], scores[i])
		}
	}
	fmt.Printf("accuracy on the campaign: %.0f%%\n", float64(correct)/float64(ds.Len())*100)
}

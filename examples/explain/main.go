// Explain: the Figure 7 scenario — a memory leak in Empire runs, detected
// by Prodigy and explained by CoMTE counterfactuals. The explanation names
// the metrics that, if they had looked like a healthy run's, would have
// flipped the prediction — pointing the domain expert at the memory
// subsystem.
package main

import (
	"fmt"
	"log"
	"strings"

	"prodigy/internal/core"
	"prodigy/internal/experiments"
	"prodigy/internal/features"
	"prodigy/internal/hpas"
)

func main() {
	campaign := experiments.CampaignConfig{
		System:            "eclipse",
		Apps:              []string{"empire"},
		JobsPerApp:        8,
		NodesPerJob:       4,
		Duration:          200,
		AnomalousJobFrac:  0.25,
		AnomalousNodeFrac: 1,
		Injectors:         []hpas.Injector{hpas.Memleak{SizeMB: 10, Period: 0.4}},
		Seed:              3,
		Catalog:           features.Minimal(),
	}
	camp, err := experiments.Generate(campaign)
	if err != nil {
		log.Fatal(err)
	}
	ds := camp.Dataset

	cfg := experiments.ProdigyConfig(experiments.Quick, campaign, 3)
	experiments.TopKFor(&cfg, ds.X.Cols)
	cfg.Explain.MaxMetrics = 10
	p := core.New(cfg)
	if err := p.Fit(ds, nil); err != nil {
		log.Fatal(err)
	}

	preds, scores, _ := p.DetectBatch(ds.X)
	for i, m := range ds.Meta {
		if m.Anomaly != "memleak" || preds[i] != 1 {
			continue
		}
		fmt.Printf("job %d node %d flagged (score %.5f > threshold %.5f)\n",
			m.JobID, m.Component, scores[i], p.Threshold())
		expl, err := p.Explain(ds, i)
		if expl == nil {
			log.Fatalf("explanation failed: %v", err)
		}
		fmt.Printf("counterfactual: the node would be classified healthy if these metrics\n")
		fmt.Printf("looked like the distractor run's (most influential first):\n")
		top := expl.Metrics
		if len(top) > 8 {
			top = top[:8]
		}
		for _, metric := range top {
			note := ""
			if strings.HasSuffix(metric, "::meminfo") || strings.HasPrefix(metric, "pg") {
				note = "   <- memory subsystem"
			}
			fmt.Printf("  %s%s\n", metric, note)
		}
		fmt.Printf("score after substitution: %.5f\n", expl.ScoreAfter)
		if err != nil {
			fmt.Printf("note: %v\n", err)
		}
		return
	}
	fmt.Println("no memleak sample detected — try a different seed")
}

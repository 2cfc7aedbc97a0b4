package experiments

import (
	"fmt"

	"io"
	"prodigy/internal/features"
	"strings"

	"prodigy/internal/core"
	"prodigy/internal/hpas"
	"prodigy/internal/pipeline"
)

// Figure7Result reproduces Figure 7 / the CoMTE part of §6.2: per-node
// predictions for a memleak job from Empire runs, and the counterfactual
// explanation metrics for an anomalous node.
type Figure7Result struct {
	JobID        int64
	Predictions  []core.NodePrediction
	Explained    int // component whose prediction was explained
	Explanation  []string
	ScoreBefore  float64
	ScoreAfter   float64
	MemoryMetric bool // whether a memory metric appears in the explanation
}

// RunFigure7 builds an Empire campaign (healthy runs to train, one memleak
// job to explain), trains Prodigy, analyzes the chosen job and explains an
// anomalous node's prediction.
func RunFigure7(budget Budget, seed int64) (*Figure7Result, error) {
	cfg := CampaignConfig{
		System:            "eclipse",
		Apps:              []string{"empire"},
		JobsPerApp:        8,
		NodesPerJob:       4,
		Duration:          240,
		AnomalousJobFrac:  0.25,
		AnomalousNodeFrac: 1,
		Injectors:         []hpas.Injector{hpas.Memleak{SizeMB: 10, Period: 0.4}},
		DropProb:          0.005,
		Seed:              seed,
	}
	if budget == Quick {
		cfg.Catalog = features.Minimal()
	}
	camp, err := Generate(cfg)
	if err != nil {
		return nil, err
	}
	ds := camp.Dataset

	pCfg := ProdigyConfig(budget, cfg, seed)
	TopKFor(&pCfg, ds.X.Cols)
	p := core.New(pCfg)
	if err := p.Fit(ds, nil); err != nil {
		return nil, err
	}
	p.TuneThreshold(ds)

	// The "chosen job": the first memleak job.
	chosen := int64(-1)
	for _, m := range ds.Meta {
		if m.Anomaly == "memleak" {
			chosen = m.JobID
			break
		}
	}
	if chosen == -1 {
		return nil, fmt.Errorf("experiments: no memleak job generated")
	}
	preds, err := p.AnalyzeJob(camp.Store, chosen)
	if err != nil {
		return nil, err
	}

	// Explain the first anomalous-predicted node of the chosen job.
	res := &Figure7Result{JobID: chosen, Predictions: preds, Explained: -1}
	for i, m := range ds.Meta {
		if m.JobID != chosen || m.Label != pipeline.Anomalous {
			continue
		}
		rowPreds, _, _ := p.DetectBatch(ds.X.SelectRows([]int{i}))
		if rowPreds[0] != 1 {
			continue
		}
		expl, err := p.Explain(ds, i)
		if expl == nil {
			return nil, fmt.Errorf("experiments: explanation failed: %v", err)
		}
		res.Explained = m.Component
		res.Explanation = expl.Metrics
		res.ScoreBefore = expl.ScoreBefore
		res.ScoreAfter = expl.ScoreAfter
		break
	}
	// res.Explanation is ordered most-influential-first by core.Explain.
	for _, m := range res.Explanation {
		if isMemoryMetric(m) {
			res.MemoryMetric = true
		}
	}
	return res, nil
}

// isMemoryMetric reports whether a metric belongs to the memory subsystem
// (meminfo gauges or vmstat paging counters) — the family Figure 7 shows
// CoMTE surfacing for a memleak (MemFree::meminfo, pgrotated::vmstat).
func isMemoryMetric(name string) bool {
	if strings.HasSuffix(name, "::meminfo") {
		return true
	}
	if strings.HasSuffix(name, "::vmstat") {
		base := strings.TrimSuffix(name, "::vmstat")
		for _, prefix := range []string{"pg", "pswp", "nr_", "numa", "thp", "slabs", "kswapd", "allocstall", "pageoutrun"} {
			if strings.HasPrefix(base, prefix) {
				return true
			}
		}
	}
	return false
}

// Print writes the result as paper-style output.
func (r *Figure7Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Figure 7 — anomaly detection results and CoMTE explanation (job %d, memleak)\n", r.JobID)
	for _, p := range r.Predictions {
		state := "healthy"
		if p.Anomalous {
			state = "ANOMALOUS"
		}
		fmt.Fprintf(w, "  node %-4d %-9s score=%.4f (threshold %.4f)\n", p.Component, state, p.Score, p.Threshold)
	}
	if r.Explained >= 0 {
		top := r.Explanation
		if len(top) > 10 {
			top = top[:10]
		}
		fmt.Fprintf(w, "  CoMTE explanation for node %d (top metrics by impact): %s\n", r.Explained, strings.Join(top, ", "))
		fmt.Fprintf(w, "  score %.4f -> %.4f after substituting the explanation metrics\n", r.ScoreBefore, r.ScoreAfter)
	}
}

package experiments

import (
	"fmt"

	"io"
	"prodigy/internal/features"

	"prodigy/internal/core"
	"prodigy/internal/hpas"
)

// EmpireResult reproduces the second §6.2 experiment: anomalies "in the
// wild". Seven Empire jobs complete normally (healthy, 28 samples) and two
// run 10–30% longer due to degraded Lustre I/O (anomalous, 8 samples).
// Prodigy trains on the healthy jobs and is tested on the anomalous ones;
// the paper detects 7 of 8 (88% accuracy).
type EmpireResult struct {
	TrainSamples int
	TestSamples  int
	Detected     int
	Accuracy     float64
}

// RunEmpire regenerates the Empire in-the-wild experiment.
func RunEmpire(budget Budget, seed int64) (*EmpireResult, error) {
	// 9 Empire jobs on 4 nodes; the anomalous two suffer I/O degradation on
	// every node (a backend filesystem issue is not node-local).
	cfg := CampaignConfig{
		System:            "eclipse",
		Apps:              []string{"empire"},
		JobsPerApp:        9,
		NodesPerJob:       4,
		Duration:          240,
		AnomalousJobFrac:  0, // anomalies assigned manually below
		AnomalousNodeFrac: 1,
		DropProb:          0.005,
		Seed:              seed,
	}
	if budget == Quick {
		cfg.Catalog = features.Minimal()
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Build manually to pin exactly 7 healthy / 2 degraded jobs.
	camp, err := generateEmpire(cfg, seed)
	if err != nil {
		return nil, err
	}
	ds := camp.Dataset

	healthy := ds.Subset(ds.HealthyIndices())
	anomalous := ds.Subset(ds.AnomalousIndices())
	if healthy.Len() != 28 || anomalous.Len() != 8 {
		return nil, fmt.Errorf("experiments: empire campaign produced %d healthy / %d anomalous, want 28/8",
			healthy.Len(), anomalous.Len())
	}

	pCfg := ProdigyConfig(budget, cfg, seed)
	TopKFor(&pCfg, ds.X.Cols)
	p := core.New(pCfg)
	// Selection still needs both classes; as in the paper's §5.4.3 this is
	// the one minimally-supervised step (here it sees the full campaign).
	if err := p.FitWithSelection(healthy, ds, nil); err != nil {
		return nil, err
	}

	preds, _, _ := p.DetectBatch(anomalous.X)
	detected := 0
	for _, pr := range preds {
		detected += pr
	}
	return &EmpireResult{
		TrainSamples: healthy.Len(),
		TestSamples:  anomalous.Len(),
		Detected:     detected,
		Accuracy:     float64(detected) / float64(anomalous.Len()),
	}, nil
}

// generateEmpire builds the exact 7-healthy/2-degraded Empire campaign:
// the last two of nine jobs run against a degraded backend filesystem.
func generateEmpire(cfg CampaignConfig, seed int64) (*Campaign, error) {
	full := cfg
	full.JobsPerApp = 9
	full.AnomalousJobs = 2
	full.Seed = seed
	full.Injectors = []hpas.Injector{hpas.IODegrade{Severity: 0.9}}
	return Generate(full)
}

// Print writes the result as paper-style output.
func (r *EmpireResult) Print(w io.Writer) {
	fmt.Fprintf(w, "§6.2 Empire in-the-wild — train on %d healthy samples, test on %d anomalous\n",
		r.TrainSamples, r.TestSamples)
	fmt.Fprintf(w, "  detected %d/%d anomalous samples (accuracy %.0f%%; paper: 7/8 = 88%%)\n",
		r.Detected, r.TestSamples, r.Accuracy*100)
}

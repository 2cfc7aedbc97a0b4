package experiments

import (
	"fmt"

	"io"
	"math/rand"
	"prodigy/internal/features"
	"time"

	"prodigy/internal/core"
	"prodigy/internal/mat"
)

// InferenceResult reproduces the §6.2 inference-time measurement: the
// average wall time to predict every sample of a test-set-sized batch,
// averaged over runs (paper: 18,947 Eclipse samples in 3.28 s and 14,589
// Volta samples in 2.5 s on a Xeon node).
type InferenceResult struct {
	System     string
	NumSamples int
	Runs       int
	AvgSeconds float64
	PerSample  time.Duration
}

// RunInference measures batch prediction latency at the paper's test-set
// sizes (or scaled-down ones for Quick budget). A small campaign trains
// the model; timing then runs over a synthetic batch of the target size in
// the full feature space, which exercises exactly the production path
// (selection → scaling → VAE forward → threshold).
func RunInference(system string, budget Budget, runs int, seed int64) (*InferenceResult, error) {
	var campaignCfg CampaignConfig
	numSamples := 0
	switch system {
	case "eclipse":
		campaignCfg = EclipseCampaign(0.3, seed)
		numSamples = 18947
	case "volta":
		campaignCfg = VoltaCampaign(0.3, seed)
		numSamples = 14589
	default:
		return nil, fmt.Errorf("experiments: unknown system %q", system)
	}
	if budget == Quick {
		numSamples /= 10
		campaignCfg.Duration = 180
		campaignCfg.Catalog = features.Minimal()
	}
	camp, err := Generate(campaignCfg)
	if err != nil {
		return nil, err
	}
	ds := camp.Dataset
	pCfg := ProdigyConfig(budget, campaignCfg, seed)
	TopKFor(&pCfg, ds.X.Cols)
	p := core.New(pCfg)
	if err := p.Fit(ds, nil); err != nil {
		return nil, err
	}

	// Build the timing batch by jittering real samples up to the target
	// count (timing must not depend on simulating 19k node runs).
	rng := rand.New(rand.NewSource(seed))
	batch := mat.New(numSamples, ds.X.Cols)
	for i := 0; i < numSamples; i++ {
		src := ds.X.Row(i % ds.Len())
		dst := batch.Row(i)
		for j, v := range src {
			dst[j] = v * (1 + rng.NormFloat64()*0.01)
		}
	}

	var total time.Duration
	for r := 0; r < runs; r++ {
		start := time.Now()
		p.DetectBatch(batch)
		total += time.Since(start)
	}
	avg := total / time.Duration(runs)
	return &InferenceResult{
		System:     system,
		NumSamples: numSamples,
		Runs:       runs,
		AvgSeconds: avg.Seconds(),
		PerSample:  avg / time.Duration(numSamples),
	}, nil
}

// Print writes the measurement as paper-style output.
func (r *InferenceResult) Print(w io.Writer) {
	fmt.Fprintf(w, "§6.2 inference time — %s: %d samples predicted in %.2f s avg over %d runs (%.1f µs/sample)\n",
		r.System, r.NumSamples, r.AvgSeconds, r.Runs, float64(r.PerSample.Nanoseconds())/1000)
}

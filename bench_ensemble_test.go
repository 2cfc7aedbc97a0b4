package prodigy

// Cascade-ensemble benchmarks (DESIGN.md §16): the cascade's perf claim
// is that on a mostly-normal stream the cheap pre-filter clears the bulk
// and only the suspicious tail pays for the expensive fleet. Three
// closed-loop benchmarks pin it down — the cascade, the same fleet
// forced to score every row (pre-filter disabled), and the solo VAE the
// paper deploys — all scoring the same ≥95%-normal stream.
// BENCH_ensemble.json records them, the observed pre-filter pass rate
// and the fused-vs-solo F1/AUC table, gated on cascade ≥3× full-fleet
// throughput and fused detection quality within 0.01 of solo.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"prodigy/internal/baselines/usad"
	"prodigy/internal/core"
	"prodigy/internal/ensemble"
	"prodigy/internal/experiments"
	"prodigy/internal/mat"
	"prodigy/internal/pipeline"
	"prodigy/internal/vae"
)

const (
	ensBenchFeatures   = 24
	ensBenchStreamRows = 2048
	// One anomaly per ensBenchAnomEvery rows keeps the benchmark stream
	// ~97% normal — the regime the cascade is built for, and the one the
	// ≥3× claim is stated over.
	ensBenchAnomEvery = 33
)

// ensBenchDataset builds the synthetic 96×24 training campaign shared by
// all three scoring benchmarks (same shape as the serving benchmarks'
// model: tiny but through the full select/scale/fit pipeline).
func ensBenchDataset() *pipeline.Dataset {
	const samples = 96
	rng := rand.New(rand.NewSource(41))
	names := make([]string, ensBenchFeatures)
	for i := range names {
		names[i] = "ens_f" + string(rune('a'+i%26)) + string(rune('a'+i/26))
	}
	x := mat.New(samples, ensBenchFeatures)
	meta := make([]pipeline.SampleMeta, samples)
	for i := 0; i < samples; i++ {
		label := pipeline.Healthy
		if i%8 == 7 {
			label = pipeline.Anomalous
		}
		for j := 0; j < ensBenchFeatures; j++ {
			v := rng.NormFloat64()
			if label == pipeline.Anomalous {
				v += 4
			}
			x.Data[i*x.Cols+j] = v
		}
		meta[i] = pipeline.SampleMeta{JobID: int64(i), Label: label}
	}
	return &pipeline.Dataset{FeatureNames: names, X: x, Meta: meta}
}

// ensBenchStream builds the scored stream: ensBenchStreamRows full-width
// rows, ~97% drawn from the healthy distribution and the rest shifted.
func ensBenchStream() *mat.Matrix {
	rng := rand.New(rand.NewSource(43))
	x := mat.New(ensBenchStreamRows, ensBenchFeatures)
	for i := 0; i < ensBenchStreamRows; i++ {
		shift := 0.0
		if i%ensBenchAnomEvery == ensBenchAnomEvery-1 {
			shift = 4
		}
		for j := 0; j < ensBenchFeatures; j++ {
			x.Data[i*x.Cols+j] = rng.NormFloat64() + shift
		}
	}
	return x
}

// ensBenchCoreConfig is the shared pipeline config. The fleet members
// are sized toward the paper's deployed widths (hidden layers around
// 64–128 at the selected dimensionality) rather than toy ones: the
// cascade's win is the asymmetry between the pre-filter and the fleet,
// so shrinking the fleet to keep a benchmark tidy would understate the
// production regime the claim is about. Epochs stay minimal — training
// happens once, inference cost is what's measured.
func ensBenchCoreConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.VAE = vae.Config{HiddenDims: []int{128, 64}, LatentDim: 16, Activation: "tanh",
		LearningRate: 1e-3, BatchSize: 32, Epochs: 4, Seed: 11}
	cfg.Trainer = pipeline.TrainerConfig{TopK: 20, ThresholdPercentile: 95, ScalerKind: "minmax"}
	return cfg
}

// ensBenchUSAD mirrors the VAE's scale for the USAD fleet member.
func ensBenchUSAD(kind string, inputDim int) (pipeline.Model, error) {
	if kind != "usad" {
		return nil, nil
	}
	m, err := pipeline.NewUSADModel(usad.Config{InputDim: inputDim, HiddenSize: 128,
		LatentDim: 16, BatchSize: 32, Epochs: 4, WarmupEpochs: 2,
		LR: 1e-3, Alpha: 0.5, Beta: 0.5, Seed: 11})
	if err != nil {
		return nil, err
	}
	return m, nil
}

// The three deployments under benchmark, trained once and shared: the
// emitter runs each benchmark through testing.Benchmark several times
// and retraining a VAE+USAD+LOF fleet per calibration round would
// dominate the run.
var (
	ensBenchOnce     sync.Once
	ensBenchErr      error
	ensBenchCascade  *core.Prodigy
	ensBenchFleet    *core.Prodigy
	ensBenchSolo     *core.Prodigy
	ensBenchStreamed *mat.Matrix
)

func ensBenchModels(tb testing.TB) (cascade, fleet, solo *core.Prodigy, stream *mat.Matrix) {
	tb.Helper()
	ensBenchOnce.Do(func() {
		ds := ensBenchDataset()
		ensBenchStreamed = ensBenchStream()

		// The naive z-score pre-filter — the cheapest calibrated stage 1
		// (O(dims) per row; iforest's 100 trees cost a meaningful fraction
		// of this fleet, muddying what the benchmark isolates).
		eCfg := ensemble.Config{Prefilter: "naive", PassFrac: 0.05,
			Fusion: ensemble.FusionRank, Members: []string{"vae", "usad", "lof"}, Seed: 11}
		ensBenchCascade = core.New(ensBenchCoreConfig())
		if ensBenchErr = ensBenchCascade.FitEnsemble(ds, nil, eCfg, ensBenchUSAD); ensBenchErr != nil {
			return
		}

		// Same fleet with the pre-filter disabled: every row reaches every
		// member — the cost the cascade exists to avoid.
		fCfg := eCfg
		fCfg.Prefilter = ""
		ensBenchFleet = core.New(ensBenchCoreConfig())
		if ensBenchErr = ensBenchFleet.FitEnsemble(ds, nil, fCfg, ensBenchUSAD); ensBenchErr != nil {
			return
		}

		ensBenchSolo = core.New(ensBenchCoreConfig())
		ensBenchErr = ensBenchSolo.Fit(ds, ds)
	})
	if ensBenchErr != nil {
		tb.Fatalf("ensemble bench setup: %v", ensBenchErr)
	}
	return ensBenchCascade, ensBenchFleet, ensBenchSolo, ensBenchStreamed
}

// benchScoreStream scores the full stream per iteration and reports
// rows/s as samples/s.
func benchScoreStream(b *testing.B, p *core.Prodigy, stream *mat.Matrix) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Scores(stream)
	}
	b.ReportMetric(float64(b.N*stream.Rows)/b.Elapsed().Seconds(), "samples/s")
}

// BenchmarkCascadeScoring: the naive pre-filter clears the normal bulk;
// only the ~5% tail reaches the VAE/USAD/LOF fleet.
func BenchmarkCascadeScoring(b *testing.B) {
	cascade, _, _, stream := ensBenchModels(b)
	benchScoreStream(b, cascade, stream)
	if ens, ok := ensemble.Of(cascade.Artifact()); ok {
		b.ReportMetric(ens.PassFrac(), "prefilter_pass_frac")
	}
}

// BenchmarkFullFleetScoring: the same fleet scores every row — the
// no-cascade upper bound on cost.
func BenchmarkFullFleetScoring(b *testing.B) {
	_, fleet, _, stream := ensBenchModels(b)
	benchScoreStream(b, fleet, stream)
}

// BenchmarkSoloVAEScoring: the paper's single-model deployment on the
// same stream, for context on what the ensemble's robustness costs.
func BenchmarkSoloVAEScoring(b *testing.B) {
	_, _, solo, stream := ensBenchModels(b)
	benchScoreStream(b, solo, stream)
}

// measureEnsembleEval records the fused-vs-solo quality table (the one
// `experiments -run ensemble` prints): detection quality is what the
// cascade's throughput win must not cost.
func measureEnsembleEval(t *testing.T) benchMetrics {
	eval, err := experiments.RunEnsembleEval(experiments.Quick, ensemble.FusionRank, 1)
	if err != nil {
		t.Fatalf("ensemble eval: %v", err)
	}
	m := benchMetrics{}
	for _, row := range eval.Rows {
		e := map[string]float64{"f1": row.F1, "auc": row.AUC}
		if row.PassFrac > 0 {
			e["prefilter_pass_frac"] = row.PassFrac
		}
		m["EnsembleEval/"+row.System+"/"+row.Model] = e
	}
	return m
}

// fusedQualityGate holds the fused cascade's F1 and AUC within 0.01 of
// the solo Prodigy on one system's campaign.
func fusedQualityGate(system string) benchGate {
	solo, fused := "EnsembleEval/"+system+"/prodigy-vae", "EnsembleEval/"+system+"/cascade-rank"
	return benchGate{
		name: system + " fused F1/AUC ≥ solo − 0.01",
		check: func(m benchMetrics) (string, bool) {
			sf, ff := m.at(solo, "f1"), m.at(fused, "f1")
			sa, fa := m.at(solo, "auc"), m.at(fused, "auc")
			return fmt.Sprintf("F1 %.3f vs %.3f, AUC %.3f vs %.3f", ff, sf, fa, sa), ff >= sf-0.01 && fa >= sa-0.01
		},
	}
}

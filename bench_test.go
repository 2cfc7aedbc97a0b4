// Package prodigy's root benchmark harness regenerates every table and
// figure of the paper's evaluation (DESIGN.md's per-experiment index E1–E7
// and ablations A1–A3), plus micro-benchmarks of the pipeline stages.
//
//	go test -bench=. -benchmem
//
// Experiment benchmarks run the Quick budget (reduced campaign scales and
// model sizes) so a full sweep finishes on a laptop; the same runners at
// Paper budget back cmd/experiments -budget paper.
package prodigy

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"

	"prodigy/internal/cluster"
	"prodigy/internal/core"
	"prodigy/internal/dsos"
	"prodigy/internal/experiments"
	"prodigy/internal/featsel"
	"prodigy/internal/features"
	"prodigy/internal/hpas"
	"prodigy/internal/ldms"
	"prodigy/internal/mat"
	"prodigy/internal/online"
	"prodigy/internal/pipeline"
	"prodigy/internal/timeseries"
	"prodigy/internal/vae"
)

// quickFigure5Campaign is shared by the Figure 5 benchmarks.
func quickFigure5Campaign(system string, seed int64) experiments.CampaignConfig {
	var cfg experiments.CampaignConfig
	if system == "eclipse" {
		cfg = experiments.EclipseCampaign(0.4, seed)
	} else {
		cfg = experiments.VoltaCampaign(0.4, seed)
	}
	cfg.Duration = 180
	cfg.Catalog = features.Minimal()
	return cfg
}

// BenchmarkFigure5_Eclipse regenerates the Eclipse group of Figure 5 (E1):
// macro F1 of Prodigy vs USAD, IF, LOF, Random and Majority under 5-fold CV
// on an anomaly-heavy campaign.
func BenchmarkFigure5_Eclipse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure5(quickFigure5Campaign("eclipse", 1), experiments.Quick, 5, 1)
		if err != nil {
			b.Fatal(err)
		}
		reportF1s(b, res)
	}
}

// BenchmarkFigure5_Volta regenerates the Volta group of Figure 5 (E1).
func BenchmarkFigure5_Volta(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure5(quickFigure5Campaign("volta", 1), experiments.Quick, 5, 1)
		if err != nil {
			b.Fatal(err)
		}
		reportF1s(b, res)
	}
}

func reportF1s(b *testing.B, res *experiments.Figure5Result) {
	units := map[string]string{
		"Prodigy":              "prodigyF1",
		"USAD":                 "usadF1",
		"Isolation Forest":     "ifF1",
		"Local Outlier Factor": "lofF1",
	}
	for _, m := range res.Methods {
		if unit, ok := units[m.Method]; ok {
			b.ReportMetric(m.Mean, unit)
		}
	}
}

// BenchmarkFigure6 regenerates the sample-efficiency curve (E2): F1 vs
// number of healthy training samples.
func BenchmarkFigure6(b *testing.B) {
	cfg := experiments.Figure6Campaign(180, 2)
	cfg.Catalog = features.Minimal()
	cfg.JobsPerApp = 6
	cfg.AnomalousJobs = 10 // 24 jobs total -> 14 healthy jobs (56 samples)
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure6(cfg, experiments.Quick, []int{4, 8, 16, 32, 48}, 3, 2)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Points[0].MeanF1, "f1@4")
		b.ReportMetric(res.Points[len(res.Points)-1].MeanF1, "f1@48")
	}
}

// BenchmarkFigure7 regenerates the CoMTE explanation scenario (E3): detect
// a memleak job's nodes and explain one prediction.
func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure7(experiments.Quick, 3)
		if err != nil {
			b.Fatal(err)
		}
		if res.MemoryMetric {
			b.ReportMetric(1, "memMetricInExplanation")
		} else {
			b.ReportMetric(0, "memMetricInExplanation")
		}
	}
}

// BenchmarkTable3 regenerates the hyperparameter grid search (E4), thinned
// to the Quick grid.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable3(experiments.Quick, 4)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(experiments.Best(res.Prodigy).F1, "bestProdigyF1")
		b.ReportMetric(experiments.Best(res.USAD).F1, "bestUsadF1")
	}
}

// BenchmarkEmpire regenerates the in-the-wild Empire experiment (E5):
// 28 healthy training samples, 8 anomalous test samples; the paper detects
// 7/8.
func BenchmarkEmpire(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunEmpire(experiments.Quick, 5)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Accuracy, "accuracy")
	}
}

// BenchmarkInference_Eclipse regenerates the §6.2 inference-time
// measurement (E6) at 1/10 the paper's batch size.
func BenchmarkInference_Eclipse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunInference("eclipse", experiments.Quick, 3, 6)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.AvgSeconds, "batchSeconds")
	}
}

// BenchmarkInference_Volta is E6 for the Volta test-set size.
func BenchmarkInference_Volta(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunInference("volta", experiments.Quick, 3, 6)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.AvgSeconds, "batchSeconds")
	}
}

// BenchmarkInventory regenerates Tables 1 and 2 (E7).
func BenchmarkInventory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.PrintTable1(io.Discard); err != nil {
			b.Fatal(err)
		}
		experiments.PrintTable2(io.Discard)
	}
}

// BenchmarkAblationThreshold sweeps the threshold percentile (A1).
func BenchmarkAblationThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblationThreshold(experiments.Quick, 7); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationTopK sweeps the selected feature count (A2).
func BenchmarkAblationTopK(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblationTopK(experiments.Quick, 7); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSelection compares selection strategies (A3).
func BenchmarkAblationSelection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblationSelection(experiments.Quick, 7); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationKMeans evaluates the rejected K-means baseline (A3).
func BenchmarkAblationKMeans(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblationKMeans(experiments.Quick, 7); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Micro-benchmarks of the pipeline stages ---

// benchFeatureTable builds the shared fixture for the feature-extraction
// benchmarks: one node's telemetry table (106 metrics × 300 s).
func benchFeatureTable() *timeseries.Table {
	rng := rand.New(rand.NewSource(1))
	ts := make([]int64, 300)
	for i := range ts {
		ts[i] = int64(i)
	}
	tb := timeseries.NewTable(ts)
	for m := 0; m < 106; m++ {
		col := make([]float64, 300)
		for i := range col {
			col[i] = rng.NormFloat64() * 100
		}
		tb.AddColumn(featureName(m), col)
	}
	return tb
}

// BenchmarkFeatureExtraction measures the steady-state hot path: the
// default catalog writing into a preallocated vector via ExtractTableInto,
// the form the dataset builder and AnalyzeJob run per sample. Zero
// allocations after the workspace pool is warm.
func BenchmarkFeatureExtraction(b *testing.B) {
	tb := benchFeatureTable()
	cat := features.Default()
	dst := make([]float64, tb.NumMetrics()*cat.NumFeaturesPerSeries())
	cat.ExtractTableInto(dst, tb) // warm the workspace pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cat.ExtractTableInto(dst, tb)
	}
}

// BenchmarkFeatureExtractionNamed measures the cold path that allocates
// the result vector and rebuilds the namespaced name table every call —
// the cost the preallocated Into form avoids.
func BenchmarkFeatureExtractionNamed(b *testing.B) {
	tb := benchFeatureTable()
	cat := features.Default()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst := make([]float64, tb.NumMetrics()*cat.NumFeaturesPerSeries())
		cat.ExtractTableInto(dst, tb)
		cat.TableFeatureNames(tb.Order)
	}
}

func featureName(i int) string {
	return "metric_" + string(rune('a'+i%26)) + string(rune('0'+i/26%10)) + string(rune('0'+i/260))
}

// benchVAETrainEpoch measures one epoch of VAE training on 256×100
// features at batch size 64 at the given data-parallel fan-out.
func benchVAETrainEpoch(b *testing.B, workers int) {
	rng := rand.New(rand.NewSource(1))
	x := mat.Randn(256, 100, 1, rng)
	cfg := vae.DefaultConfig(100)
	cfg.HiddenDims = []int{64, 32}
	cfg.Epochs = 1
	cfg.BatchSize = 64
	cfg.Workers = workers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := vae.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := v.Fit(x, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVAETrainEpoch(b *testing.B)   { benchVAETrainEpoch(b, 1) }
func BenchmarkVAETrainEpochW8(b *testing.B) { benchVAETrainEpoch(b, 8) }

// BenchmarkVAEInference measures batch scoring throughput: 1024 samples of
// 100 features per iteration.
func BenchmarkVAEInference(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := mat.Randn(1024, 100, 1, rng)
	cfg := vae.DefaultConfig(100)
	cfg.HiddenDims = []int{64, 32}
	cfg.Epochs = 2
	v, err := vae.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := v.Fit(x, nil); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Scores(x)
	}
	b.ReportMetric(float64(1024*b.N)/b.Elapsed().Seconds(), "samples/s")
}

// benchDetector trains a small VAE detector over synthetic features — the
// shared model for the concurrency benchmarks below.
func benchDetector(b *testing.B) (*pipeline.AnomalyDetector, *mat.Matrix) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	n, dim := 256, 60
	ds := &pipeline.Dataset{X: mat.Randn(n, dim, 1, rng)}
	meta := make([]pipeline.SampleMeta, n)
	for i := range meta {
		meta[i].Label = pipeline.Healthy
		if i%10 == 0 {
			meta[i].Label = pipeline.Anomalous
		}
	}
	ds.Meta = meta
	trainer := &pipeline.ModelTrainer{
		Cfg: pipeline.TrainerConfig{TopK: 40, ThresholdPercentile: 99, ScalerKind: "minmax"},
		NewModel: func(in int) (pipeline.Model, error) {
			cfg := vae.DefaultConfig(in)
			cfg.HiddenDims = []int{32}
			cfg.LatentDim = 4
			cfg.Epochs = 10
			cfg.BatchSize = 64
			return pipeline.NewVAEModel(cfg)
		},
	}
	artifact, err := trainer.Train(ds, ds, nil)
	if err != nil {
		b.Fatal(err)
	}
	det, err := artifact.Detector()
	if err != nil {
		b.Fatal(err)
	}
	return det, ds.X
}

// BenchmarkConcurrentScoring measures request throughput of one shared
// detector as the number of concurrent scoring goroutines grows — the
// serving shape where net/http runs every dashboard request in its own
// goroutine. Stateless inference means throughput scales with cores
// instead of corrupting activations.
func BenchmarkConcurrentScoring(b *testing.B) {
	det, x := benchDetector(b)
	batch := x.SelectRows([]int{0, 1, 2, 3, 4, 5, 6, 7}) // one dashboard request ≈ one job's nodes
	for _, g := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("goroutines=%d", g), func(b *testing.B) {
			var wg sync.WaitGroup
			iters := make(chan struct{}, b.N)
			for i := 0; i < b.N; i++ {
				iters <- struct{}{}
			}
			close(iters)
			b.ResetTimer()
			for w := 0; w < g; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for range iters {
						det.Predict(batch)
					}
				}()
			}
			wg.Wait()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
		})
	}
}

// benchScoringInstrumentation measures the serving batch path — one
// dashboard request's worth of rows, serial scoring — with the model-health
// observability layer (score sketch, cost ledger, throughput counters)
// enabled or disabled. The BENCH_scoring.json pair pins the contract that
// instrumentation costs under 5% of scoring time (DESIGN.md §13).
func benchScoringInstrumentation(b *testing.B, on bool) {
	det, x := benchDetector(b)
	batch := x.SelectRows([]int{0, 1, 2, 3, 4, 5, 6, 7})
	prev := pipeline.SetInstrumentation(on)
	defer pipeline.SetInstrumentation(prev)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.Scores(batch)
	}
	b.ReportMetric(float64(batch.Rows*b.N)/b.Elapsed().Seconds(), "samples/s")
}

func BenchmarkScoringInstrumented(b *testing.B)   { benchScoringInstrumentation(b, true) }
func BenchmarkScoringUninstrumented(b *testing.B) { benchScoringInstrumentation(b, false) }

// BenchmarkBatchScoresParallel measures the large-batch Scores path, which
// fans rows out across GOMAXPROCS workers internally.
func BenchmarkBatchScoresParallel(b *testing.B) {
	det, x := benchDetector(b)
	idx := make([]int, 4096)
	for i := range idx {
		idx[i] = i % x.Rows
	}
	big := x.SelectRows(idx)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.Scores(big)
	}
	b.ReportMetric(float64(len(idx)*b.N)/b.Elapsed().Seconds(), "samples/s")
}

// BenchmarkEndToEndDetection measures the production path (Figure 4) for
// one job: query, preprocess, extract, select, scale, score.
func BenchmarkEndToEndDetection(b *testing.B) {
	campaign := experiments.CampaignConfig{
		System:           "eclipse",
		Apps:             []string{"lammps"},
		JobsPerApp:       6,
		NodesPerJob:      4,
		Duration:         150,
		AnomalousJobFrac: 0.3,
		Seed:             8,
		Catalog:          features.Minimal(),
	}
	camp, err := experiments.Generate(campaign)
	if err != nil {
		b.Fatal(err)
	}
	cfg := experiments.ProdigyConfig(experiments.Quick, campaign, 8)
	cfg.VAE.Epochs = 60
	experiments.TopKFor(&cfg, camp.Dataset.X.Cols)
	p := core.New(cfg)
	if err := p.Fit(camp.Dataset, nil); err != nil {
		b.Fatal(err)
	}
	jobs := camp.Store.Jobs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.AnalyzeJob(camp.Store, jobs[i%len(jobs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDatasetBuild measures campaign generation + feature extraction
// for a 48-sample campaign — the offline data preparation cost.
func BenchmarkDatasetBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.CampaignConfig{
			System:           "volta",
			Apps:             []string{"nas-cg", "minimd"},
			JobsPerApp:       6,
			NodesPerJob:      4,
			Duration:         150,
			AnomalousJobFrac: 0.2,
			Seed:             int64(i),
			Catalog:          features.Minimal(),
		}
		if _, err := experiments.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChiSquareSelection measures selection over a 500×4000 feature
// matrix — the offline selection stage at realistic width.
func BenchmarkChiSquareSelection(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ds := &pipeline.Dataset{X: mat.Randn(500, 4000, 1, rng)}
	labels := make([]int, 500)
	meta := make([]pipeline.SampleMeta, 500)
	for i := range labels {
		labels[i] = i % 10 / 9 // 10% anomalous
		meta[i] = pipeline.SampleMeta{Label: labels[i]}
	}
	ds.Meta = meta
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := featsel.Select(ds.X, labels, nil, 400); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationUnsupervised evaluates the fully unsupervised pipeline
// (§7 future work): kurtosis selection + contamination trimming vs. the
// labeled flow.
func BenchmarkAblationUnsupervised(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblationUnsupervised(experiments.Quick, 7); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHetero exercises the §7 heterogeneous-systems extension: a
// mixed CPU/GPU campaign with one model per node class.
func BenchmarkHetero(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunHetero(experiments.Quick, 9)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Classes["cpu"].MacroF1(), "cpuF1")
		b.ReportMetric(res.Classes["gpu"].MacroF1(), "gpuF1")
	}
}

// BenchmarkStreamingDetection measures the online extension: live windowed
// detection over one job's row stream (160 s × 4 nodes).
func BenchmarkStreamingDetection(b *testing.B) {
	sys := cluster.NewSystem("bench", 8, cluster.EclipseNode(), 0)
	store := dsos.NewStore()
	truth := map[int64]map[int][2]string{}
	appsByJob := map[int64]string{}
	for i := 0; i < 5; i++ {
		job, err := sys.Submit("lammps", 4, 160, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		jobTruth := map[int][2]string{}
		if i == 4 {
			// One labeled anomalous job feeds the chi-square stage.
			inj := hpas.Memleak{SizeMB: 10, Period: 0.05}
			for _, n := range job.Nodes[:2] {
				job.Injectors[n] = inj
				jobTruth[n] = [2]string{inj.Name(), inj.Config()}
			}
		}
		sys.CollectJob(job, ldms.CollectConfig{Seed: int64(i)}, store)
		truth[job.ID] = jobTruth
		appsByJob[job.ID] = "lammps"
		if err := sys.Complete(job.ID); err != nil {
			b.Fatal(err)
		}
	}
	ocfg := online.Config{Window: 40, Stride: 20, Grace: 2, Catalog: features.Minimal()}
	ds, err := online.BuildWindowDataset(store, truth, appsByJob, ocfg)
	if err != nil {
		b.Fatal(err)
	}
	cfg := experiments.ProdigyConfig(experiments.Quick, experiments.CampaignConfig{System: "eclipse", Catalog: features.Minimal()}, 1)
	cfg.VAE.Epochs = 60
	experiments.TopKFor(&cfg, ds.X.Cols)
	p := core.New(cfg)
	if err := p.Fit(ds, nil); err != nil {
		b.Fatal(err)
	}
	job, err := sys.Submit("lammps", 4, 160, 99)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det, err := online.NewDetector(ocfg, p, nil)
		if err != nil {
			b.Fatal(err)
		}
		sys.CollectJob(job, ldms.CollectConfig{Seed: 99}, det)
		det.Flush()
	}
}

// Command prodigy is the framework CLI: train a model on a dataset, detect
// anomalies, evaluate against ground truth, and explain predictions.
//
//	prodigy train  -data eclipse.dsgz -model model.json
//	prodigy eval   -data eclipse.dsgz -model model.json
//	prodigy detect -data eclipse.dsgz -model model.json
//	prodigy explain -data eclipse.dsgz -model model.json -sample 12
//	prodigy diagnose -data eclipse.dsgz -model model.json -sample 12
//
// Datasets come from cmd/datagen. Training uses only the healthy samples
// (the unsupervised protocol of §3.3); the dataset's labeled anomalies are
// consumed solely by the Chi-square feature selection stage (§5.4.3).
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"prodigy/internal/core"
	"prodigy/internal/diagnose"
	"prodigy/internal/eval"
	"prodigy/internal/pipeline"
	"prodigy/internal/vae"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	dataPath := fs.String("data", "", "dataset path (from datagen)")
	modelPath := fs.String("model", "prodigy-model.json", "model artifact path")
	topK := fs.Int("topk", 100, "number of chi-square-selected features")
	epochs := fs.Int("epochs", 400, "VAE training epochs")
	lr := fs.Float64("lr", 1e-3, "VAE learning rate")
	batch := fs.Int("batch", 64, "VAE batch size")
	percentile := fs.Float64("percentile", 99, "threshold percentile over training errors")
	sample := fs.Int("sample", -1, "sample index to explain (explain only)")
	seed := fs.Int64("seed", 1, "model seed")
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}
	if *dataPath == "" {
		fatalf("-data is required")
	}
	ds, err := pipeline.LoadDataset(*dataPath)
	if err != nil {
		fatalf("load dataset: %v", err)
	}

	cfg := core.DefaultConfig()
	cfg.VAE = vae.Config{
		HiddenDims: []int{64, 32}, LatentDim: 8, Activation: "tanh",
		LearningRate: *lr, BatchSize: *batch, Epochs: *epochs,
		Beta: 1e-3, ClipNorm: 5, Seed: *seed,
	}
	cfg.Trainer = pipeline.TrainerConfig{TopK: *topK, ThresholdPercentile: *percentile, ScalerKind: "minmax"}
	if cfg.Trainer.TopK > ds.X.Cols {
		cfg.Trainer.TopK = ds.X.Cols
	}

	switch cmd {
	case "train":
		runTrain(cfg, ds, *modelPath)
	case "eval":
		runEval(cfg, ds, *modelPath)
	case "detect":
		runDetect(cfg, ds, *modelPath)
	case "explain":
		runExplain(cfg, ds, *modelPath, *sample)
	case "diagnose":
		runDiagnose(cfg, ds, *modelPath, *sample)
	default:
		usage()
	}
}

func runTrain(cfg core.Config, ds *pipeline.Dataset, modelPath string) {
	fmt.Printf("training on %d healthy samples (%d total, %d features, top-%d selected)\n",
		len(ds.HealthyIndices()), ds.Len(), ds.X.Cols, cfg.Trainer.TopK)
	p := core.New(cfg)
	if len(ds.AnomalousIndices()) == 0 {
		// No labeled anomalies for the Chi-square stage: fall back to the
		// fully unsupervised pipeline (kurtosis selection + trimming).
		fmt.Println("no labeled anomalies in the dataset; using the fully unsupervised pipeline")
		if err := p.FitUnsupervised(ds, core.DefaultUnsupervisedConfig()); err != nil {
			fatalf("fit: %v", err)
		}
	} else if err := p.Fit(ds, nil); err != nil {
		fatalf("fit: %v", err)
	}
	if err := p.Save(modelPath); err != nil {
		fatalf("save: %v", err)
	}
	fmt.Printf("threshold %.6f; model written to %s\n", p.Threshold(), modelPath)
}

func loadModel(cfg core.Config, ds *pipeline.Dataset, modelPath string) *core.Prodigy {
	p, err := core.Load(modelPath, cfg)
	if err != nil {
		fatalf("load model: %v (train first?)", err)
	}
	healthy := ds.Subset(ds.HealthyIndices())
	if healthy.Len() > 0 {
		p.SetExplainPool(healthy.X)
	}
	return p
}

func runEval(cfg core.Config, ds *pipeline.Dataset, modelPath string) {
	p := loadModel(cfg, ds, modelPath)
	conf := p.Evaluate(ds)
	fmt.Printf("confusion: %s\n", conf)
	pAnom, rAnom, f1Anom := conf.PrecisionRecallF1(1)
	fmt.Printf("anomalous: precision %.3f recall %.3f F1 %.3f\n", pAnom, rAnom, f1Anom)
	pH, rH, f1H := conf.PrecisionRecallF1(0)
	fmt.Printf("healthy:   precision %.3f recall %.3f F1 %.3f\n", pH, rH, f1H)
	fmt.Printf("macro F1:  %.3f  accuracy: %.3f\n", conf.MacroF1(), conf.Accuracy())
	// Report the tuned-threshold upper bound too (§5.4.4 sweep).
	scores := p.Scores(ds.X)
	_, bestF1 := eval.BestThreshold(scores, ds.Labels(), 0, 1, 0.001)
	fmt.Printf("macro F1 with swept threshold: %.3f\n", bestF1)
}

func runDetect(cfg core.Config, ds *pipeline.Dataset, modelPath string) {
	p := loadModel(cfg, ds, modelPath)
	preds, scores, _ := p.DetectBatch(ds.X)
	fmt.Printf("%-8s %-12s %-12s %-10s %-8s %s\n", "sample", "job", "component", "app", "pred", "score")
	for i := range preds {
		m := ds.Meta[i]
		state := "healthy"
		if preds[i] == 1 {
			state = "ANOMALY"
		}
		fmt.Printf("%-8d %-12d %-12d %-10s %-8s %.5f\n", i, m.JobID, m.Component, m.App, state, scores[i])
	}
}

func runExplain(cfg core.Config, ds *pipeline.Dataset, modelPath string, sample int) {
	if sample < 0 || sample >= ds.Len() {
		fatalf("-sample must be in [0, %d)", ds.Len())
	}
	p := loadModel(cfg, ds, modelPath)
	expl, err := p.Explain(ds, sample)
	if expl == nil {
		fatalf("explain: %v", err)
	}
	m := ds.Meta[sample]
	fmt.Printf("sample %d (job %d, component %d, app %s, truth %s)\n", sample, m.JobID, m.Component, m.App, m.Anomaly)
	fmt.Printf("counterfactual: substitute %s\n", strings.Join(expl.Metrics, ", "))
	fmt.Printf("score %.5f -> %.5f\n", expl.ScoreBefore, expl.ScoreAfter)
	if err != nil {
		fmt.Printf("note: %v\n", err)
	}
}

// runDiagnose classifies the anomaly type of a flagged sample using the
// k-NN diagnoser fitted on the dataset's labeled anomalies.
func runDiagnose(cfg core.Config, ds *pipeline.Dataset, modelPath string, sample int) {
	if sample < 0 || sample >= ds.Len() {
		fatalf("-sample must be in [0, %d)", ds.Len())
	}
	p := loadModel(cfg, ds, modelPath)
	vec := ds.X.RowCopy(sample)
	anomalous, score := p.DetectVector(vec)
	if !anomalous {
		fatalf("sample %d is predicted healthy (score %.5f); nothing to diagnose", sample, score)
	}
	clf, err := diagnose.New(ds, 3)
	if err != nil {
		fatalf("diagnose: %v", err)
	}
	d, err := clf.Classify(vec)
	if err != nil {
		fatalf("diagnose: %v", err)
	}
	m := ds.Meta[sample]
	fmt.Printf("sample %d (job %d, component %d, truth %s)\n", sample, m.JobID, m.Component, m.Anomaly)
	fmt.Printf("diagnosis: %s (confidence %.0f%%)\n", d.Type, d.Confidence*100)
	types := make([]string, 0, len(d.Votes))
	for t := range d.Votes {
		types = append(types, t)
	}
	sort.Strings(types)
	for _, t := range types {
		fmt.Printf("  %-12s %.0f%%\n", t, d.Votes[t]*100)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: prodigy <train|eval|detect|explain|diagnose> -data <dataset> [flags]`)
	os.Exit(2)
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "prodigy: "+format+"\n", args...)
	os.Exit(1)
}

package experiments

import (
	"fmt"

	"io"
	"math/rand"
	"prodigy/internal/features"
	"sort"

	"prodigy/internal/baselines/usad"
	"prodigy/internal/core"
	"prodigy/internal/eval"
	"prodigy/internal/featsel"
	"prodigy/internal/pipeline"
	"prodigy/internal/vae"
)

// GridPoint is one hyperparameter combination and its test F1.
type GridPoint struct {
	Params map[string]float64
	F1     float64
}

// Table3Result reproduces Table 3: the hyperparameter grid searches for
// Prodigy and USAD, with the best combination starred.
type Table3Result struct {
	Prodigy []GridPoint
	USAD    []GridPoint
}

// Table3Grids returns the exact hyperparameter spaces of Table 3.
func Table3Grids() (prodigyLR, prodigyBatch []float64, prodigyEpochs []int,
	usadBatch []float64, usadEpochs []int, usadHidden []int, usadAB []float64) {
	return []float64{1e-5, 1e-4, 1e-3, 1e-2},
		[]float64{32, 64, 128, 256},
		[]int{400, 800, 1200, 2400, 3000, 6000},
		[]float64{32, 64, 128, 256},
		[]int{50, 100, 200, 400},
		[]int{100, 200, 400},
		[]float64{0.1, 0.5, 1}
}

// RunTable3 regenerates the grid search on a reduced Eclipse campaign. In
// Quick budget the grid is thinned (2 values per axis, scaled epochs) so
// the sweep completes in seconds; Paper budget runs the full Table 3 grid.
func RunTable3(budget Budget, seed int64) (*Table3Result, error) {
	campaignCfg := EclipseCampaign(0.4, seed)
	if budget == Quick {
		campaignCfg.Duration = 180
		campaignCfg.Catalog = features.Minimal()
	}
	camp, err := Generate(campaignCfg)
	if err != nil {
		return nil, err
	}
	ds := camp.Dataset
	rng := rand.New(rand.NewSource(seed))
	// A 50/50 capped split keeps enough healthy samples in training for
	// the sweep to rank hyperparameters meaningfully at reduced scale.
	train, test := SplitCapped(ds, 0.5, 0.1, rng)

	topK := 100
	if topK > ds.X.Cols {
		topK = ds.X.Cols
	}
	// Selection is the offline minimally-supervised stage (§5.4.3): it runs
	// once over the full campaign, which has both classes; the capped
	// training split may not.
	selection, err := featsel.Select(ds.X, ds.Labels(), ds.FeatureNames, topK)
	if err != nil {
		return nil, err
	}

	lrs, batches, epochsList, uBatches, uEpochs, uHidden, uAB := Table3Grids()
	epochScale := 1.0
	if budget == Quick {
		lrs = []float64{1e-4, 1e-3}
		batches = []float64{32, 256}
		epochsList = []int{400, 2400}
		uBatches = []float64{32, 256}
		uEpochs = []int{50, 100}
		uHidden = []int{100, 200}
		uAB = []float64{0.1, 0.5}
		epochScale = 0.1 // scale epoch counts to keep the quick sweep fast
	}

	// Every grid point is an independent fit over the same split and
	// selection: train them all concurrently through TrainAll (per-model
	// results are identical to fitting them one by one), then score each
	// on the test split. The first len(res.Prodigy) jobs are the VAE
	// points, the rest the USAD points.
	res := &Table3Result{}
	var jobs []pipeline.TrainJob
	var prodigyCfgs []core.Config
	for _, lr := range lrs {
		for _, bs := range batches {
			for _, ep := range epochsList {
				pCfg := ProdigyConfig(budget, campaignCfg, seed)
				pCfg.Trainer.TopK = topK
				pCfg.VAE = vae.Config{
					HiddenDims: []int{32}, LatentDim: 6, Activation: "tanh",
					LearningRate: lr, BatchSize: int(bs),
					Epochs: int(float64(ep)*epochScale + 0.5),
					Beta:   1e-3, ClipNorm: 5, Seed: seed,
				}
				vaeCfg := pCfg.VAE
				jobs = append(jobs, pipeline.TrainJob{
					Trainer: &pipeline.ModelTrainer{
						Cfg: pCfg.Trainer,
						NewModel: func(in int) (pipeline.Model, error) {
							cfg := vaeCfg
							cfg.InputDim = in
							return pipeline.NewVAEModel(cfg)
						},
					},
					Train:     train,
					Selection: selection,
				})
				prodigyCfgs = append(prodigyCfgs, pCfg)
				res.Prodigy = append(res.Prodigy, GridPoint{
					Params: map[string]float64{"lr": lr, "batch": bs, "epochs": float64(ep)},
				})
			}
		}
	}
	for _, bs := range uBatches {
		for _, ep := range uEpochs {
			for _, hid := range uHidden {
				for _, ab := range uAB {
					jobs = append(jobs, pipeline.TrainJob{
						Trainer: &pipeline.ModelTrainer{
							Cfg: pipeline.TrainerConfig{TopK: topK, ThresholdPercentile: 99, ScalerKind: "minmax"},
							NewModel: func(in int) (pipeline.Model, error) {
								cfg := usad.DefaultConfig(in)
								cfg.Seed = seed
								cfg.BatchSize = int(bs)
								cfg.Epochs = int(float64(ep)*epochScale + 0.5)
								if cfg.Epochs < 5 {
									cfg.Epochs = 5
								}
								cfg.WarmupEpochs = cfg.Epochs / 2
								cfg.HiddenSize = hid
								cfg.Alpha = ab
								cfg.Beta = ab
								return pipeline.NewUSADModel(cfg)
							},
						},
						Train:     train,
						Selection: selection,
					})
					res.USAD = append(res.USAD, GridPoint{
						Params: map[string]float64{"batch": bs, "epochs": float64(ep), "hidden": float64(hid), "alpha_beta": ab},
					})
				}
			}
		}
	}
	arts, err := pipeline.TrainAll(jobs)
	if err != nil {
		return nil, err
	}
	for i := range res.Prodigy {
		p, err := core.FromArtifact(arts[i], prodigyCfgs[i])
		if err != nil {
			return nil, err
		}
		p.TuneThreshold(test)
		res.Prodigy[i].F1 = p.Evaluate(test).MacroF1()
	}
	for i := range res.USAD {
		det, err := arts[len(res.Prodigy)+i].Detector()
		if err != nil {
			return nil, err
		}
		_, res.USAD[i].F1 = eval.BestThreshold(det.Scores(test.X), test.Labels(), 0, 1, 0.001)
	}
	return res, nil
}

// Best returns the highest-F1 grid point of a sweep.
func Best(points []GridPoint) GridPoint {
	best := points[0]
	for _, p := range points[1:] {
		if p.F1 > best.F1 {
			best = p
		}
	}
	return best
}

// Print writes both sweeps with the optimum starred, as Table 3 does.
func (r *Table3Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Table 3 — hyperparameter grid search (star marks the optimum)")
	printGrid(w, "Prodigy", r.Prodigy)
	printGrid(w, "USAD", r.USAD)
}

func printGrid(w io.Writer, name string, points []GridPoint) {
	best := Best(points)
	fmt.Fprintf(w, "  %s:\n", name)
	for _, p := range points {
		star := " "
		if samePoint(p, best) {
			star = "*"
		}
		fmt.Fprintf(w, "   %s %s F1=%.3f\n", star, formatParams(p.Params), p.F1)
	}
}

func samePoint(a, b GridPoint) bool {
	if len(a.Params) != len(b.Params) {
		return false
	}
	for k, v := range a.Params {
		if b.Params[k] != v {
			return false
		}
	}
	return a.F1 == b.F1
}

func formatParams(p map[string]float64) string {
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := ""
	for i, k := range keys {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s=%g", k, p[k])
	}
	return s
}

package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"

	"prodigy/internal/baselines/iforest"
	"prodigy/internal/baselines/lof"
	"prodigy/internal/baselines/naive"
	"prodigy/internal/core"
	"prodigy/internal/eval"
	"prodigy/internal/featsel"
	"prodigy/internal/mat"
	"prodigy/internal/pipeline"
	"prodigy/internal/scale"
)

// MethodResult holds one method's cross-validated macro F1.
type MethodResult struct {
	Method string
	F1s    []float64
	Mean   float64
	Std    float64
}

// Figure5Result reproduces Figure 5: macro F1 of Prodigy and the baselines
// on one system's dataset, averaged over k-fold cross-validation.
type Figure5Result struct {
	System           string
	Folds            int
	NumSamples       int
	TestAnomalyRatio float64
	Methods          []MethodResult
}

// RunFigure5 regenerates one system's group of Figure 5. The campaign is
// generated at the given config; folds is the paper's 5 unless reduced.
func RunFigure5(campaignCfg CampaignConfig, budget Budget, folds int, seed int64) (*Figure5Result, error) {
	camp, err := Generate(campaignCfg)
	if err != nil {
		return nil, err
	}
	return Figure5OnDataset(camp.Dataset, campaignCfg, budget, folds, seed)
}

// Figure5OnDataset runs the Figure 5 protocol on a pre-built dataset.
func Figure5OnDataset(ds *pipeline.Dataset, campaignCfg CampaignConfig, budget Budget, folds int, seed int64) (*Figure5Result, error) {
	rng := rand.New(rand.NewSource(seed))
	labels := ds.Labels()
	kf := eval.KFold(labels, folds, rng)

	acc := map[string][]float64{}
	var testRatioSum float64
	for fi, fold := range kf {
		train := ds.Subset(fold.Train)
		test := ds.Subset(fold.Test)
		// Cap the train anomaly ratio at 10% (§5.4.2); the displaced
		// anomalies simply drop from this fold's training set (the test
		// fold is fixed by CV).
		train = capTrainAnomalies(train, 0.1, rng)
		testRatioSum += AnomalyRatio(test)

		foldSeed := seed + int64(fi)*101
		scores, err := runFoldMethods(train, test, campaignCfg, budget, foldSeed)
		if err != nil {
			return nil, fmt.Errorf("fold %d: %w", fi, err)
		}
		for method, f1 := range scores {
			acc[method] = append(acc[method], f1)
		}
	}

	res := &Figure5Result{
		System:           campaignCfg.System,
		Folds:            folds,
		NumSamples:       ds.Len(),
		TestAnomalyRatio: testRatioSum / float64(folds),
	}
	methods := make([]string, 0, len(acc))
	for m := range acc {
		methods = append(methods, m)
	}
	sort.Strings(methods)
	for _, m := range methods {
		mean, std := eval.MeanStd(acc[m])
		res.Methods = append(res.Methods, MethodResult{Method: m, F1s: acc[m], Mean: mean, Std: std})
	}
	// Present in descending mean F1, as the figure's visual ordering.
	sort.SliceStable(res.Methods, func(i, j int) bool { return res.Methods[i].Mean > res.Methods[j].Mean })
	return res, nil
}

// runFoldMethods trains and evaluates every Figure 5 method on one fold.
func runFoldMethods(train, test *pipeline.Dataset, campaignCfg CampaignConfig, budget Budget, seed int64) (map[string]float64, error) {
	out := map[string]float64{}
	testLabels := test.Labels()

	// Shared feature selection (chi-square on the fold's training data,
	// which contains the few labeled anomalies — §5.4.3).
	pCfg := ProdigyConfig(budget, campaignCfg, seed)
	TopKFor(&pCfg, train.X.Cols)
	selection, err := featsel.Select(train.X, train.Labels(), train.FeatureNames, pCfg.Trainer.TopK)
	if err != nil {
		return nil, err
	}

	// --- Prodigy and USAD --- trained concurrently: the two fits are
	// independent models over the same read-only fold and selection, and
	// each owns its replicas, sharder and workspaces (DESIGN.md §11), so
	// results match the sequential schedule exactly. USAD trains
	// healthy-only on the same selection, threshold swept below.
	p := core.New(pCfg)
	usadTrainer := &pipeline.ModelTrainer{
		Cfg: pCfg.Trainer,
		NewModel: func(in int) (pipeline.Model, error) {
			return pipeline.NewUSADModel(USADConfig(budget, seed)(in))
		},
	}
	var (
		wg      sync.WaitGroup
		pErr    error
		usadArt *pipeline.Artifact
		usadErr error
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		pErr = p.FitWithSelection(train, nil, selection)
	}()
	go func() {
		defer wg.Done()
		usadArt, usadErr = usadTrainer.Train(train, nil, selection)
	}()
	wg.Wait()
	if pErr != nil {
		return nil, pErr
	}
	if usadErr != nil {
		return nil, usadErr
	}
	// Threshold sweep per §5.4.4.
	p.TuneThreshold(test)
	out["Prodigy"] = p.Evaluate(test).MacroF1()
	usadDet, err := usadArt.Detector()
	if err != nil {
		return nil, err
	}
	usadScores := usadDet.Scores(test.X)
	_, usadF1 := eval.BestThreshold(usadScores, testLabels, 0, 1, 0.001)
	out["USAD"] = usadF1

	// --- Isolation Forest / LOF --- (anomalies kept in training, §5.4.4)
	xTrainSel := selection.Apply(train.X)
	sc := scale.NewMinMax()
	xTrainScaled := scale.FitTransform(sc, xTrainSel)
	xTestScaled := sc.TransformInto(&mat.Matrix{}, selection.Apply(test.X))

	ifCfg := iforest.DefaultConfig()
	ifCfg.Seed = seed
	forest, err := iforest.New(ifCfg)
	if err != nil {
		return nil, err
	}
	if err := forest.Fit(xTrainScaled); err != nil {
		return nil, err
	}
	out["Isolation Forest"] = eval.MacroF1Of(forest.Predict(xTestScaled), testLabels)

	lofCfg := lof.DefaultConfig()
	if xTrainScaled.Rows <= lofCfg.K {
		lofCfg.K = xTrainScaled.Rows/2 + 1
	}
	l, err := lof.New(lofCfg)
	if err != nil {
		return nil, err
	}
	if err := l.Fit(xTrainScaled); err != nil {
		return nil, err
	}
	out["Local Outlier Factor"] = eval.MacroF1Of(l.Predict(xTestScaled), testLabels)

	// --- Heuristics ---
	out["Random Prediction"] = eval.MacroF1Of(naive.Random{Seed: seed}.Predict(len(testLabels)), testLabels)
	out["Majority Label Prediction"] = eval.MacroF1Of(naive.Majority{}.Predict(testLabels), testLabels)
	return out, nil
}

// capTrainAnomalies drops anomalous training samples beyond the ratio cap.
func capTrainAnomalies(train *pipeline.Dataset, maxRatio float64, rng *rand.Rand) *pipeline.Dataset {
	h := train.HealthyIndices()
	a := train.AnomalousIndices()
	maxAnom := int(maxRatio / (1 - maxRatio) * float64(len(h)))
	if len(a) <= maxAnom {
		return train
	}
	rng.Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
	keep := append(append([]int{}, h...), a[:maxAnom]...)
	sort.Ints(keep)
	return train.Subset(keep)
}

// Print writes the result as the paper-style rows of Figure 5.
func (r *Figure5Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Figure 5 — macro average F1-score, %s dataset (%d samples, %d-fold CV, test anomaly ratio %.0f%%)\n",
		r.System, r.NumSamples, r.Folds, r.TestAnomalyRatio*100)
	for _, m := range r.Methods {
		fmt.Fprintf(w, "  %-28s %.3f ± %.3f\n", m.Method, m.Mean, m.Std)
	}
}

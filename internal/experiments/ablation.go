package experiments

import (
	"fmt"

	"io"
	"math/rand"
	"prodigy/internal/features"

	"prodigy/internal/baselines/kmeans"
	"prodigy/internal/core"
	"prodigy/internal/eval"
	"prodigy/internal/featsel"
	"prodigy/internal/mat"
	"prodigy/internal/pipeline"
	"prodigy/internal/scale"
)

// AblationPoint is one configuration of an ablation sweep.
type AblationPoint struct {
	Name string
	F1   float64
}

// AblationResult is one ablation study's sweep.
type AblationResult struct {
	Study  string
	Points []AblationPoint
}

// Print writes the sweep.
func (r *AblationResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Ablation — %s\n", r.Study)
	for _, p := range r.Points {
		fmt.Fprintf(w, "  %-28s F1 = %.3f\n", p.Name, p.F1)
	}
}

// ablationData prepares a shared campaign, split and offline feature
// selection for the ablations. Selection runs on the full campaign (the
// paper's separate minimally-supervised stage, §5.4.3) because the capped
// 50/50 training split can end up with no anomalous samples.
func ablationData(budget Budget, seed int64) (CampaignConfig, *pipeline.Dataset, *pipeline.Dataset, *featsel.Selection, error) {
	cfg := EclipseCampaign(0.6, seed)
	// The ablations need a healthy-rich training split (the Eclipse
	// collection protocol is anomaly-heavy), so balance the job mix.
	cfg.AnomalousJobFrac = 0.5
	if budget == Quick {
		cfg.Duration = 180
		cfg.Catalog = features.Minimal()
	}
	camp, err := Generate(cfg)
	if err != nil {
		return cfg, nil, nil, nil, err
	}
	ds := camp.Dataset
	rng := rand.New(rand.NewSource(seed))
	train, test := SplitCapped(ds, 0.5, 0.1, rng)
	topK := 100
	if topK > ds.X.Cols {
		topK = ds.X.Cols
	}
	sel, err := featsel.Select(ds.X, ds.Labels(), ds.FeatureNames, topK)
	if err != nil {
		return cfg, nil, nil, nil, err
	}
	return cfg, train, test, sel, nil
}

// RunAblationThreshold sweeps the threshold percentile of §3.3 (the paper
// fixes the 99th percentile but notes "one can experiment with different
// percentile values").
func RunAblationThreshold(budget Budget, seed int64) (*AblationResult, error) {
	cfg, train, test, sel, err := ablationData(budget, seed)
	if err != nil {
		return nil, err
	}
	res := &AblationResult{Study: "threshold percentile (fixed, no test sweep)"}
	for _, pct := range []float64{90, 95, 99, 99.9, 100} {
		pCfg := ProdigyConfig(budget, cfg, seed)
		TopKFor(&pCfg, train.X.Cols)
		pCfg.Trainer.ThresholdPercentile = pct
		p := core.New(pCfg)
		if err := p.FitWithSelection(train, nil, sel); err != nil {
			return nil, err
		}
		res.Points = append(res.Points, AblationPoint{
			Name: fmt.Sprintf("percentile %.1f", pct),
			F1:   p.Evaluate(test).MacroF1(),
		})
	}
	return res, nil
}

// RunAblationTopK sweeps the selected feature count (§5.4.3: the paper
// tries 250/500/1000/2000 and finds 2000 best).
func RunAblationTopK(budget Budget, seed int64) (*AblationResult, error) {
	cfg, train, test, _, err := ablationData(budget, seed)
	if err != nil {
		return nil, err
	}
	res := &AblationResult{Study: "number of selected features (paper sweeps 250/500/1000/2000)"}
	ks := []int{25, 50, 100, 250, 500, 1000, 2000}
	for _, k := range ks {
		if k > train.X.Cols {
			continue
		}
		// Re-run the offline selection stage at this k.
		full, err := Generate(cfg)
		if err != nil {
			return nil, err
		}
		sel, err := featsel.Select(full.Dataset.X, full.Dataset.Labels(), full.Dataset.FeatureNames, k)
		if err != nil {
			return nil, err
		}
		pCfg := ProdigyConfig(budget, cfg, seed)
		pCfg.Trainer.TopK = k
		p := core.New(pCfg)
		if err := p.FitWithSelection(train, nil, sel); err != nil {
			return nil, err
		}
		p.TuneThreshold(test)
		res.Points = append(res.Points, AblationPoint{
			Name: fmt.Sprintf("top-%d features", k),
			F1:   p.Evaluate(test).MacroF1(),
		})
	}
	return res, nil
}

// RunAblationSelection compares Chi-square selection against variance
// ranking and no selection at all — the design choice §3.2 motivates.
func RunAblationSelection(budget Budget, seed int64) (*AblationResult, error) {
	cfg, train, test, chiSel, err := ablationData(budget, seed)
	if err != nil {
		return nil, err
	}
	pCfg := ProdigyConfig(budget, cfg, seed)
	TopKFor(&pCfg, train.X.Cols)
	k := pCfg.Trainer.TopK

	variants := []struct {
		name string
		sel  func() (*featsel.Selection, error)
	}{
		{"chi-square top-k", func() (*featsel.Selection, error) {
			return chiSel, nil
		}},
		{"variance top-k", func() (*featsel.Selection, error) {
			idx := featsel.SelectTopKByVariance(train.X, k)
			names := make([]string, len(idx))
			for i, j := range idx {
				names[i] = train.FeatureNames[j]
			}
			return &featsel.Selection{Indices: idx, Names: names}, nil
		}},
		{"no selection (all features)", func() (*featsel.Selection, error) {
			idx := make([]int, train.X.Cols)
			names := make([]string, train.X.Cols)
			for i := range idx {
				idx[i] = i
				names[i] = train.FeatureNames[i]
			}
			return &featsel.Selection{Indices: idx, Names: names}, nil
		}},
	}
	res := &AblationResult{Study: "feature selection strategy"}
	for _, v := range variants {
		sel, err := v.sel()
		if err != nil {
			return nil, err
		}
		p := core.New(pCfg)
		if err := p.FitWithSelection(train, nil, sel); err != nil {
			return nil, err
		}
		p.TuneThreshold(test)
		res.Points = append(res.Points, AblationPoint{Name: v.name, F1: p.Evaluate(test).MacroF1()})
	}
	return res, nil
}

// RunAblationKMeans evaluates the K-means baseline the paper rejects in
// §5.3 ("may not be effective in detecting anomalies in high dimensional
// datasets"), so the claim is checkable.
func RunAblationKMeans(budget Budget, seed int64) (*AblationResult, error) {
	cfg, train, test, selection, err := ablationData(budget, seed)
	if err != nil {
		return nil, err
	}
	pCfg := ProdigyConfig(budget, cfg, seed)
	TopKFor(&pCfg, train.X.Cols)
	sc := scale.NewMinMax()
	xTrain := scale.FitTransform(sc, selection.Apply(train.X))
	xTest := sc.TransformInto(&mat.Matrix{}, selection.Apply(test.X))

	res := &AblationResult{Study: "K-means baseline (rejected in §5.3)"}
	for _, k := range []int{2, 4, 8, 16} {
		kmCfg := kmeans.DefaultConfig()
		kmCfg.K = k
		kmCfg.Seed = seed
		km, err := kmeans.New(kmCfg)
		if err != nil {
			return nil, err
		}
		if err := km.Fit(xTrain); err != nil {
			return nil, err
		}
		res.Points = append(res.Points, AblationPoint{
			Name: fmt.Sprintf("k-means k=%d", k),
			F1:   eval.MacroF1Of(km.Predict(xTest), test.Labels()),
		})
	}
	// Prodigy reference point on the same split.
	p := core.New(pCfg)
	if err := p.FitWithSelection(train, nil, selection); err != nil {
		return nil, err
	}
	p.TuneThreshold(test)
	res.Points = append(res.Points, AblationPoint{Name: "Prodigy (reference)", F1: p.Evaluate(test).MacroF1()})
	return res, nil
}

// RunAblationUnsupervised compares the standard (healthy-labeled) training
// flow against the fully unsupervised §7 future-work mode on the same
// contaminated pool: no labels, kurtosis feature selection, and iterative
// trimming of the assumed contamination.
func RunAblationUnsupervised(budget Budget, seed int64) (*AblationResult, error) {
	cfg, train, test, sel, err := ablationData(budget, seed)
	if err != nil {
		return nil, err
	}
	res := &AblationResult{Study: "fully unsupervised pipeline (§7 future work)"}

	// Reference: the paper's flow — labeled healthy training samples.
	pCfg := ProdigyConfig(budget, cfg, seed)
	TopKFor(&pCfg, train.X.Cols)
	ref := core.New(pCfg)
	if err := ref.FitWithSelection(train, nil, sel); err != nil {
		return nil, err
	}
	ref.TuneThreshold(test)
	res.Points = append(res.Points, AblationPoint{Name: "supervised-selection (paper)", F1: ref.Evaluate(test).MacroF1()})

	// Unsupervised with and without contamination trimming.
	for _, u := range []struct {
		name string
		cfg  core.UnsupervisedConfig
	}{
		{"unsupervised, no trimming", core.UnsupervisedConfig{Contamination: 0, Rounds: 1}},
		{"unsupervised, trim 10%", core.UnsupervisedConfig{Contamination: 0.1, Rounds: 2}},
	} {
		p := core.New(pCfg)
		if err := p.FitUnsupervised(train, u.cfg); err != nil {
			return nil, err
		}
		p.TuneThreshold(test)
		res.Points = append(res.Points, AblationPoint{Name: u.name, F1: p.Evaluate(test).MacroF1()})
	}
	return res, nil
}

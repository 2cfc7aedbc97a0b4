package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"prodigy/internal/baselines/lof"
	"prodigy/internal/core"
	"prodigy/internal/ensemble"
	"prodigy/internal/eval"
	"prodigy/internal/features"
	"prodigy/internal/pipeline"
)

// EnsembleRow is one model's evaluation on one system's campaign.
type EnsembleRow struct {
	System string
	Model  string
	F1     float64
	AUC    float64
	// PassFrac is the fraction of test rows the cascade's pre-filter
	// passed to the expensive fleet; 0 for the solo model.
	PassFrac float64
	// Members lists the cascade's fleet (empty for the solo model).
	Members []string
}

// EnsembleResult compares the budgeted cascade ensemble against the
// solo-VAE Prodigy on the hpas campaigns: same split, same feature
// selection, threshold swept per §5.4.4 for both, plus the
// threshold-free AUC so the comparison doesn't hinge on one operating
// point.
type EnsembleResult struct {
	Fusion ensemble.Fusion
	Rows   []EnsembleRow
}

// RunEnsembleEval trains the solo Prodigy VAE and the cascade ensemble
// on a stratified split of each system's campaign and reports macro-F1
// and AUC side by side. The acceptance bar for the cascade is fused
// F1/AUC within 0.01 of solo — the pre-filter may clear rows, it must
// not cost detection quality.
func RunEnsembleEval(budget Budget, fusion ensemble.Fusion, seed int64) (*EnsembleResult, error) {
	res := &EnsembleResult{Fusion: fusion}
	for _, system := range []string{"eclipse", "volta"} {
		// Full-scale campaigns even under the quick budget: the cascade's
		// pre-filter margin is calibrated on a quarter of the healthy
		// training rows, and Eclipse's anomaly-heavy collection leaves too
		// few of those at reduced scale for the calibration to be
		// meaningful. The quick budget still shortens the runs and trims
		// the catalog below.
		var cfg CampaignConfig
		if system == "eclipse" {
			cfg = EclipseCampaign(1, seed)
		} else {
			cfg = VoltaCampaign(1, seed)
		}
		if budget == Quick {
			cfg.Duration = 180
			cfg.Catalog = features.Minimal()
		}
		camp, err := Generate(cfg)
		if err != nil {
			return nil, err
		}
		ds := camp.Dataset
		rng := rand.New(rand.NewSource(seed))
		trainIdx, testIdx := eval.StratifiedSplit(ds.Labels(), 0.6, rng)
		train := ds.Subset(trainIdx)
		test := ds.Subset(testIdx)
		train = capTrainAnomalies(train, 0.1, rng)
		testLabels := test.Labels()

		pCfg := ProdigyConfig(budget, cfg, seed)
		TopKFor(&pCfg, train.X.Cols)

		// Solo Prodigy: the paper's pipeline as-is. Both models compute
		// feature selection from the same training fold with the same TopK
		// (chi-square is deterministic), so the comparison differs only in
		// the detector.
		solo := core.New(pCfg)
		if err := solo.Fit(train, nil); err != nil {
			return nil, fmt.Errorf("%s solo fit: %w", system, err)
		}
		solo.TuneThreshold(test)
		res.Rows = append(res.Rows, EnsembleRow{
			System: system,
			Model:  "prodigy-vae",
			F1:     solo.Evaluate(test).MacroF1(),
			AUC:    eval.AUC(solo.Scores(test.X), testLabels),
		})

		// Cascade: the default deployment shape — naive z-score pre-filter,
		// vae/usad/lof fleet, fused scores.
		eCfg := ensemble.DefaultConfig()
		eCfg.Fusion = fusion
		eCfg.Seed = seed
		usadCfg := USADConfig(budget, seed)
		// Quick-budget campaigns can leave fewer healthy training rows than
		// LOF's default k=20 neighbours, so clamp k to the fit set.
		lofCfg := lof.DefaultConfig()
		if h := len(train.HealthyIndices()); h <= lofCfg.K {
			lofCfg.K = h - 1
		}
		newMember := func(kind string, inputDim int) (pipeline.Model, error) {
			switch kind {
			case "usad":
				return pipeline.NewUSADModel(usadCfg(inputDim))
			case "lof":
				return pipeline.NewLOFModel(lofCfg)
			}
			return nil, nil
		}
		fused := core.New(pCfg)
		if err := fused.FitEnsemble(train, nil, eCfg, newMember); err != nil {
			return nil, fmt.Errorf("%s ensemble fit: %w", system, err)
		}
		fused.TuneThreshold(test)
		row := EnsembleRow{
			System: system,
			Model:  "cascade-" + string(fusion),
			F1:     fused.Evaluate(test).MacroF1(),
			AUC:    eval.AUC(fused.Scores(test.X), testLabels),
		}
		if ens, ok := ensemble.Of(fused.Artifact()); ok {
			row.PassFrac = ens.PassFrac()
			row.Members = ens.ActiveMembers()
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Print writes the comparison table.
func (r *EnsembleResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Cascade ensemble vs solo Prodigy — stratified 60/40 split, threshold swept per §5.4.4 (fusion: %s)\n", r.Fusion)
	fmt.Fprintf(w, "  %-8s %-16s %8s %8s %10s\n", "system", "model", "F1", "AUC", "pass-frac")
	for _, row := range r.Rows {
		pass := "-"
		if row.PassFrac > 0 {
			pass = fmt.Sprintf("%.3f", row.PassFrac)
		}
		fmt.Fprintf(w, "  %-8s %-16s %8.3f %8.3f %10s\n", row.System, row.Model, row.F1, row.AUC, pass)
	}
}

package ensemble

import (
	"fmt"

	"prodigy/internal/featsel"
	"prodigy/internal/mat"
	"prodigy/internal/pipeline"
)

// TrainOptions parameterizes Train.
type TrainOptions struct {
	// Cfg declares the cascade (fleet kinds, pre-filter, fusion).
	Cfg Config
	// Trainer carries the shared selection/scaling/threshold settings;
	// every fleet member trains under the same ones, so the VAE member's
	// fit is bit-identical to a solo train with this config.
	Trainer pipeline.TrainerConfig
	// NewMember constructs an unfitted fleet member for a kind at the
	// selected input width. Returning (nil, nil) falls back to
	// pipeline.NewModelOfKind — callers only need to handle the kinds
	// (vae, usad) that need dimension- or budget-aware configs.
	NewMember func(kind string, inputDim int) (pipeline.Model, error)
	// Train and Select are the datasets of ModelTrainer.Train; Selection,
	// when non-nil, is reused instead of being recomputed from Select.
	Train, Select *pipeline.Dataset
	Selection     *featsel.Selection
}

// Train fits the whole cascade: one pipeline.TrainJob per fleet member,
// all sharing a single feature selection, run concurrently through
// pipeline.TrainAll; then the pre-filter and rank references calibrate
// on the shared scaled healthy matrix, the decision threshold is the
// trainer's percentile of the cascade's own training scores, which also
// form the score-shift baseline, and the result bundles into one
// artifact (ModelKind "ensemble").
func Train(opts TrainOptions) (*pipeline.Artifact, error) {
	cfg := opts.Cfg
	if len(cfg.Members) == 0 {
		return nil, fmt.Errorf("ensemble: no fleet members configured")
	}
	if opts.Trainer.ThresholdPercentile == 0 {
		opts.Trainer.ThresholdPercentile = 99
	}
	selection := opts.Selection
	if selection == nil {
		if opts.Select == nil {
			return nil, fmt.Errorf("ensemble: need either a selection or selection data")
		}
		var err error
		selection, err = featsel.Select(opts.Select.X, opts.Select.Labels(), opts.Select.FeatureNames, opts.Trainer.TopK)
		if err != nil {
			return nil, fmt.Errorf("ensemble: feature selection: %w", err)
		}
	}

	jobs := make([]pipeline.TrainJob, len(cfg.Members))
	for i, kind := range cfg.Members {
		kind := kind
		jobs[i] = pipeline.TrainJob{
			Trainer: &pipeline.ModelTrainer{
				Cfg: opts.Trainer,
				NewModel: func(inputDim int) (pipeline.Model, error) {
					if opts.NewMember != nil {
						m, err := opts.NewMember(kind, inputDim)
						if err != nil || m != nil {
							return m, err
						}
					}
					return pipeline.NewModelOfKind(kind, cfg.Seed)
				},
			},
			Train:     opts.Train,
			Selection: selection,
		}
	}
	arts, err := pipeline.TrainAll(jobs)
	if err != nil {
		return nil, err
	}

	members := make([]pipeline.Model, len(arts))
	for i, a := range arts {
		m, err := a.LiveModel()
		if err != nil {
			return nil, err
		}
		members[i] = m
	}
	// Every job fit the same scaler kind on the same healthy rows, so the
	// fitted scalers are identical; adopt the first as the cascade's.
	scaler, err := arts[0].LiveScaler()
	if err != nil {
		return nil, err
	}

	e, err := New(cfg, members)
	if err != nil {
		return nil, err
	}
	healthy := opts.Train.Subset(opts.Train.HealthyIndices())
	xSel := selection.Apply(healthy.X)
	xScaled := scaler.TransformInto(mat.New(xSel.Rows, xSel.Cols), xSel)
	if err := e.Calibrate(xScaled); err != nil {
		return nil, err
	}
	return pipeline.AssembleArtifact(e, scaler, selection, e.Scores(xScaled),
		opts.Trainer.ThresholdPercentile, opts.Train.FeatureNames)
}

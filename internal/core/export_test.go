package core

import (
	"math"

	"prodigy/internal/dsos"
	"prodigy/internal/mat"
)

// AnalyzeJobPoisoned is AnalyzeJob with its pooled feature row filled with
// NaN first. Any read of a cell outside the extraction plan would then
// surface as a NaN score or a changed verdict.
func (p *Prodigy) AnalyzeJobPoisoned(store *dsos.Store, jobID int64) ([]NodePrediction, error) {
	row := rowPool.Get().(*mat.Matrix)
	defer rowPool.Put(row)
	resizeRow(row, len(p.FeatureNames()))
	for i := range row.Data {
		row.Data[i] = math.NaN()
	}
	return p.analyzeJob(row, store, jobID)
}

// PlanCells reports how many (metric, extractor) cells the deployed
// extraction plan runs, or -1 when the deployment has no plan.
func (p *Prodigy) PlanCells() int {
	plan := p.live().plan
	if plan == nil {
		return -1
	}
	n := 0
	for _, ex := range plan.Extractors {
		n += len(ex)
	}
	return n
}

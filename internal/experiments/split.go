package experiments

import (
	"math/rand"

	"prodigy/internal/pipeline"
)

// SplitCapped performs a stratified trainFrac split and then caps the
// anomaly ratio of the training set at maxTrainAnomRatio.
func SplitCapped(ds *pipeline.Dataset, trainFrac, maxTrainAnomRatio float64, rng *rand.Rand) (train, test *pipeline.Dataset) {
	labels := ds.Labels()
	byClass := map[int][]int{}
	for i, y := range labels {
		byClass[y] = append(byClass[y], i)
	}
	var trainIdx, testIdx []int
	for _, y := range []int{0, 1} {
		idx := byClass[y]
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		n := int(float64(len(idx))*trainFrac + 0.5)
		trainIdx = append(trainIdx, idx[:n]...)
		testIdx = append(testIdx, idx[n:]...)
	}
	// Cap anomaly ratio in training: allowed = ratio/(1-ratio) × healthy.
	var hTrain, aTrain []int
	for _, i := range trainIdx {
		if labels[i] == pipeline.Anomalous {
			aTrain = append(aTrain, i)
		} else {
			hTrain = append(hTrain, i)
		}
	}
	maxAnom := int(maxTrainAnomRatio / (1 - maxTrainAnomRatio) * float64(len(hTrain)))
	if len(aTrain) > maxAnom {
		testIdx = append(testIdx, aTrain[maxAnom:]...)
		aTrain = aTrain[:maxAnom]
	}
	trainIdx = append(hTrain, aTrain...)
	rng.Shuffle(len(trainIdx), func(i, j int) { trainIdx[i], trainIdx[j] = trainIdx[j], trainIdx[i] })
	rng.Shuffle(len(testIdx), func(i, j int) { testIdx[i], testIdx[j] = testIdx[j], testIdx[i] })
	return ds.Subset(trainIdx), ds.Subset(testIdx)
}

// AnomalyRatio returns the fraction of anomalous samples in ds.
func AnomalyRatio(ds *pipeline.Dataset) float64 {
	if ds.Len() == 0 {
		return 0
	}
	n := 0
	for _, y := range ds.Labels() {
		n += y
	}
	return float64(n) / float64(ds.Len())
}

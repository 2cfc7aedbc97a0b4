package features

import "math"

// This file registers Haar discrete-wavelet-transform features — the
// multi-resolution family TSFRESH covers with CWT coefficients. The series
// is decomposed into detail levels (fine → coarse); the energy share per
// level localizes where in time-scale space a metric's variability lives:
// sampling noise concentrates in level 0, application phases in middle
// levels, drifts in the approximation.
//
// The registered extractors run the cascade in place on workspace scratch
// (the approximation halves in length each level, so it can overwrite the
// front of the working buffer); haarStep/haarEnergies/haarDetailStds remain
// as the allocating reference implementations the tests check the in-place
// forms against. Both emit a fixed feature count: levels the series is too
// short to support keep their zero defaults.

const waveletLevels = 4

const invSqrt2 = 1 / math.Sqrt2

func init() {
	register("haar_energy", TierEfficient, haarEnergyNames(), exHaarEnergy)
	register("haar_detail_std", TierEfficient, lagNames("haar_detail_std", "level", 0, waveletLevels-1), exHaarDetailStd)
}

func haarEnergyNames() []string {
	out := lagNames("haar_energy_ratio", "level", 0, waveletLevels-1)
	return append(out, "haar_energy_ratio__approx")
}

func exHaarEnergy(x, dst []float64, ws *Workspace) {
	if len(x) < 2 {
		return
	}
	work := ws.floatA(len(x))
	m := 0.0
	for _, v := range x {
		m += v
	}
	m /= float64(len(x))
	for i, v := range x {
		work[i] = v - m
	}
	var details [waveletLevels]float64
	nLevels := 0
	n := len(work)
	for lvl := 0; lvl < waveletLevels && n >= 2; lvl++ {
		h := n / 2
		e := 0.0
		for i := 0; i < h; i++ {
			a := (work[2*i] + work[2*i+1]) * invSqrt2
			d := (work[2*i] - work[2*i+1]) * invSqrt2
			work[i] = a
			e += d * d
		}
		details[lvl] = e
		nLevels++
		n = h
	}
	approx := 0.0
	for _, a := range work[:n] {
		approx += a * a
	}
	total := approx
	for _, e := range details[:nLevels] {
		total += e
	}
	if total <= 0 {
		return
	}
	for lvl := 0; lvl < nLevels; lvl++ {
		dst[lvl] = details[lvl] / total
	}
	dst[waveletLevels] = approx / total
}

func exHaarDetailStd(x, dst []float64, ws *Workspace) {
	if len(x) < 2 {
		return
	}
	work := ws.floatA(len(x))
	copy(work, x)
	det := ws.floatB(len(x) / 2)
	n := len(x)
	for lvl := 0; lvl < waveletLevels && n >= 2; lvl++ {
		h := n / 2
		for i := 0; i < h; i++ {
			det[i] = (work[2*i] - work[2*i+1]) * invSqrt2
			work[i] = (work[2*i] + work[2*i+1]) * invSqrt2
		}
		mean := 0.0
		for _, d := range det[:h] {
			mean += d
		}
		mean /= float64(h)
		varSum := 0.0
		for _, d := range det[:h] {
			varSum += (d - mean) * (d - mean)
		}
		dst[lvl] = math.Sqrt(varSum / float64(h))
		n = h
	}
}

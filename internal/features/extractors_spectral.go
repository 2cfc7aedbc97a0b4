package features

import (
	"math"

	"prodigy/internal/mat"
)

// This file registers spectral extractors: discrete Fourier coefficients,
// periodogram-derived statistics (spectral centroid, peak frequency, band
// energies) and Fourier entropy — the "power spectral density" family the
// paper cites from TSFRESH. Coefficients are computed by direct DFT at the
// requested frequencies (O(n·k)), which for the small k used here beats an
// FFT and keeps the code dependency-free. The four periodogram consumers
// share the workspace's per-series cache, so the spectrum is computed once
// per catalog run.

// specBins is the fixed periodogram length. It does not shrink for short
// series: bins at or beyond the series length hold zero power, keeping the
// output contract length-independent.
const specBins = 16

var fftKs = []int{1, 2, 3, 4, 5}

func init() {
	register("fft_coefficient", TierEfficient, fftNames(), exFFTCoefficient)
	register("spectral_centroid", TierEfficient, []string{"spectral_centroid"}, exSpectralCentroid)
	register("spectral_peak_frequency", TierEfficient, []string{"spectral_peak_frequency"}, exSpectralPeakFrequency)
	register("spectral_band_energy", TierEfficient, bandNames(), exSpectralBandEnergy)
	register("fourier_entropy", TierEfficient, []string{"fourier_entropy"}, exFourierEntropy)
}

func fftNames() []string {
	out := make([]string, 0, len(fftKs)*2)
	for _, k := range fftKs {
		out = append(out, fmtParam("fft_coefficient_abs", "k", k), fmtParam("fft_coefficient_angle", "k", k))
	}
	return out
}

// specBands splits the non-DC bins of the periodogram into low/mid/high.
var specBands = [3][2]int{{1, 5}, {6, 10}, {11, 15}}

func bandNames() []string {
	labels := []string{"low", "mid", "high"}
	out := make([]string, len(labels))
	for i, l := range labels {
		out[i] = fmtParam("spectral_band_energy", "band", l)
	}
	return out
}

func exFFTCoefficient(x, dst []float64, _ *Workspace) {
	for i, k := range fftKs {
		re, im := dftCoefficient(x, k)
		dst[2*i] = math.Hypot(re, im)
		dst[2*i+1] = math.Atan2(im, re)
	}
}

func exSpectralCentroid(x, dst []float64, ws *Workspace) {
	p := ws.periodogram16(x)
	num, den := 0.0, 0.0
	for k, e := range p {
		num += float64(k) * e
		den += e
	}
	if den == 0 {
		return
	}
	dst[0] = num / den
}

func exSpectralPeakFrequency(x, dst []float64, ws *Workspace) {
	if len(x) <= 1 {
		return
	}
	p := ws.periodogram16(x)
	// Skip DC (k=0): the peak of interest is oscillatory.
	best := 1
	for k := 2; k < len(p); k++ {
		if p[k] > p[best] {
			best = k
		}
	}
	dst[0] = float64(best)
}

// exSpectralBandEnergy emits the fraction of non-DC spectral energy in the
// low (k=1..5), mid (6..10) and high (11..15) bands of the periodogram.
func exSpectralBandEnergy(x, dst []float64, ws *Workspace) {
	p := ws.periodogram16(x)
	total := 0.0
	for k := 1; k < len(p); k++ {
		total += p[k]
	}
	if total <= 0 {
		return
	}
	for i, b := range specBands {
		e := 0.0
		for k := b[0]; k <= b[1]; k++ {
			e += p[k]
		}
		dst[i] = e / total
	}
}

func exFourierEntropy(x, dst []float64, ws *Workspace) {
	p := ws.periodogram16(x)
	total := 0.0
	for k := 1; k < len(p); k++ {
		total += p[k]
	}
	if total == 0 {
		return
	}
	h := 0.0
	for k := 1; k < len(p); k++ {
		if p[k] > 0 {
			q := p[k] / total
			h -= q * math.Log(q)
		}
	}
	dst[0] = h
}

// dftCoefficient returns the real and imaginary parts of the k-th DFT
// coefficient of x (mean-removed so DC leakage does not swamp low bins).
func dftCoefficient(x []float64, k int) (re, im float64) {
	n := len(x)
	if n == 0 || k >= n {
		return 0, 0
	}
	m := mat.Mean(x)
	w := -2 * math.Pi * float64(k) / float64(n)
	for t, v := range x {
		a := w * float64(t)
		c := v - m
		re += c * math.Cos(a)
		im += c * math.Sin(a)
	}
	return re, im
}

// periodogramInto fills p with the power |X_k|² of the first len(p) DFT
// coefficients of the mean-removed signal (bin 0 is therefore ~0). Bins at
// or beyond len(x) hold zero power: the output length never depends on the
// series length, which is what keeps the spectral extractors' fixed-length
// contract intact for short series.
func periodogramInto(p, x []float64) {
	for k := range p {
		re, im := dftCoefficient(x, k)
		p[k] = re*re + im*im
	}
}

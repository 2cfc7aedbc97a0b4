package features

import (
	"math"
	"math/rand"
	"testing"
)

func TestHaarStepPreservesEnergy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, 64)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	approx, detail := haarStep(x)
	var in, out float64
	for _, v := range x {
		in += v * v
	}
	for i := range approx {
		out += approx[i]*approx[i] + detail[i]*detail[i]
	}
	if math.Abs(in-out) > 1e-9 {
		t.Fatalf("energy %v -> %v", in, out)
	}
}

func TestHaarEnergiesLocalizeFrequency(t *testing.T) {
	n := 256
	// Fast alternation: energy concentrates in the finest detail level.
	fast := make([]float64, n)
	for i := range fast {
		fast[i] = float64(i%2*2 - 1)
	}
	dFast, _ := haarEnergies(fast, 4)
	totalFast := 0.0
	for _, e := range dFast {
		totalFast += e
	}
	if dFast[0]/totalFast < 0.95 {
		t.Fatalf("alternating signal level-0 share = %v", dFast[0]/totalFast)
	}
	// Slow drift: energy concentrates in the approximation.
	slow := make([]float64, n)
	for i := range slow {
		slow[i] = float64(i)
	}
	dSlow, approxSlow := haarEnergies(slow, 4)
	total := approxSlow
	for _, e := range dSlow {
		total += e
	}
	if approxSlow/total < 0.5 {
		t.Fatalf("drift approximation share = %v", approxSlow/total)
	}
	if dSlow[0] > dSlow[len(dSlow)-1] {
		t.Fatal("drift should have more coarse than fine energy")
	}
}

func TestHaarDegenerateInputs(t *testing.T) {
	if d, a := haarEnergies(nil, 4); d != nil || a != 0 {
		t.Fatal("empty input")
	}
	if d, a := haarEnergies([]float64{5}, 4); d != nil || a != 0 {
		t.Fatal("single sample")
	}
	// Constant series: zero detail everywhere and zero approximation after
	// mean removal.
	d, a := haarEnergies([]float64{3, 3, 3, 3, 3, 3, 3, 3}, 3)
	for _, e := range d {
		if e != 0 {
			t.Fatalf("constant details = %v", d)
		}
	}
	if a != 0 {
		t.Fatalf("constant approx = %v", a)
	}
	if got := haarDetailStds([]float64{1}, 4); got != nil {
		t.Fatal("short detail stds")
	}
}

func TestHaarFeaturesRegistered(t *testing.T) {
	names := Default().SeriesFeatureNames()
	want := map[string]bool{
		"haar_energy_ratio__level_0": false,
		"haar_energy_ratio__approx":  false,
		"haar_detail_std__level_3":   false,
	}
	for _, n := range names {
		if _, ok := want[n]; ok {
			want[n] = true
		}
	}
	for n, seen := range want {
		if !seen {
			t.Errorf("feature %s not registered", n)
		}
	}
	// Energy ratios sum to ≤ 1 on a real signal.
	rng := rand.New(rand.NewSource(2))
	x := make([]float64, 100)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	fs := extract(Default(), x)
	sum := 0.0
	for _, f := range fs {
		if len(f.Name) >= 17 && f.Name[:17] == "haar_energy_ratio" {
			sum += f.Value
		}
	}
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("haar ratios sum to %v", sum)
	}
}

package usad

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"prodigy/internal/mat"
)

// clusterData builds min-max-scaled ([0,1]) samples: healthy points around
// a few centroids, anomalies shifted hard on a subset of features — the
// shape the Prodigy pipeline hands every model.
func clusterData(nHealthy, nAnom, dim int, rng *rand.Rand) (healthy, anom *mat.Matrix) {
	centroids := mat.New(3, dim)
	for i := range centroids.Data {
		centroids.Data[i] = 0.2 + rng.Float64()*0.4
	}
	healthy = mat.New(nHealthy, dim)
	for i := 0; i < nHealthy; i++ {
		c := centroids.Row(rng.Intn(3))
		for j := 0; j < dim; j++ {
			healthy.Set(i, j, c[j]+rng.NormFloat64()*0.02)
		}
	}
	anom = mat.New(nAnom, dim)
	for i := 0; i < nAnom; i++ {
		c := centroids.Row(rng.Intn(3))
		for j := 0; j < dim; j++ {
			shift := 0.0
			if j%3 == 0 {
				shift = 0.35
			}
			anom.Set(i, j, c[j]+shift+rng.NormFloat64()*0.02)
		}
	}
	return healthy, anom
}

func smallConfig(dim int) Config {
	cfg := DefaultConfig(dim)
	cfg.HiddenSize = 32
	cfg.LatentDim = 4
	cfg.Epochs = 60
	cfg.WarmupEpochs = 40
	cfg.BatchSize = 32
	return cfg
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{InputDim: 0, HiddenSize: 1, LatentDim: 1, Epochs: 1, LR: 1},
		{InputDim: 1, HiddenSize: 0, LatentDim: 1, Epochs: 1, LR: 1},
		{InputDim: 1, HiddenSize: 1, LatentDim: 0, Epochs: 1, LR: 1},
		{InputDim: 1, HiddenSize: 1, LatentDim: 1, Epochs: 0, LR: 1},
		{InputDim: 1, HiddenSize: 1, LatentDim: 1, Epochs: 1, LR: 0},
		{InputDim: 1, HiddenSize: 1, LatentDim: 1, Epochs: 1, LR: 1, Alpha: -1},
	}
	for i, cfg := range bad {
		cfg := cfg
		if err := cfg.Validate(); err == nil {
			t.Fatalf("config %d should be invalid", i)
		}
	}
	good := DefaultConfig(5)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFitValidation(t *testing.T) {
	u, err := New(smallConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := u.Fit(mat.New(3, 7), nil); err == nil {
		t.Fatal("expected width-mismatch error")
	}
	if err := u.Fit(mat.New(0, 4), nil); err == nil {
		t.Fatal("expected empty-set error")
	}
}

// TestAnomalySeparation verifies USAD scores anomalies higher than healthy
// samples after training on healthy data only.
func TestAnomalySeparation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	healthy, anom := clusterData(300, 50, 12, rng)
	u, err := New(smallConfig(12))
	if err != nil {
		t.Fatal(err)
	}
	if err := u.Fit(healthy, nil); err != nil {
		t.Fatal(err)
	}
	hs := u.Scores(healthy)
	as := u.Scores(anom)
	hMed := mat.Percentile(hs, 50)
	above := 0
	for _, s := range as {
		if s > hMed*3 {
			above++
		}
	}
	if frac := float64(above) / float64(len(as)); frac < 0.85 {
		t.Fatalf("only %.0f%% of anomalies score 3x the healthy median", frac*100)
	}
}

func TestLossesReportedAndFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	healthy, _ := clusterData(80, 0, 8, rng)
	cfg := smallConfig(8)
	cfg.Epochs = 20
	u, _ := New(cfg)
	called := false
	err := u.Fit(healthy, func(epoch int, l1, l2 float64) {
		called = true
		if math.IsNaN(l1) || math.IsNaN(l2) {
			t.Fatalf("NaN losses at epoch %d", epoch)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Fatal("progress callback never called")
	}
}

func TestScoreWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	healthy, _ := clusterData(60, 0, 6, rng)
	cfg := smallConfig(6)
	cfg.Epochs = 10
	u, _ := New(cfg)
	if err := u.Fit(healthy, nil); err != nil {
		t.Fatal(err)
	}
	// With α=β=0, all scores are 0.
	u.Cfg.Alpha, u.Cfg.Beta = 0, 0
	for _, s := range u.Scores(healthy) {
		if s != 0 {
			t.Fatal("zero weights must give zero scores")
		}
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	healthy, _ := clusterData(50, 0, 6, rng)
	cfg := smallConfig(6)
	cfg.Epochs = 15
	run := func() []float64 {
		u, _ := New(cfg)
		if err := u.Fit(healthy, nil); err != nil {
			t.Fatal(err)
		}
		return u.Scores(healthy)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must reproduce")
		}
	}
}

// TestUnmarshalRejectsMalformedWidths loads artifacts whose autoencoders
// are each well formed but do not map the configured input width onto
// itself. Each must fail at load rather than panic on its first score.
func TestUnmarshalRejectsMalformedWidths(t *testing.T) {
	marshal := func(inputDim int) map[string]json.RawMessage {
		u, err := New(smallConfig(inputDim))
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(u)
		if err != nil {
			t.Fatal(err)
		}
		var f map[string]json.RawMessage
		if err := json.Unmarshal(data, &f); err != nil {
			t.Fatal(err)
		}
		return f
	}
	wide := marshal(7)
	for i, tc := range []struct {
		field string
		value json.RawMessage
	}{
		{"ae1", wide["ae1"]},
		{"ae2", wide["ae2"]},
		{"ae1", json.RawMessage(`{"layers":[]}`)},
	} {
		f := marshal(6)
		f[tc.field] = tc.value
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &USAD{}); err == nil {
			t.Errorf("case %d: malformed %s loaded without error", i, tc.field)
		}
	}
}

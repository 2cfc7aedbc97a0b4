package vae

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"prodigy/internal/mat"
)

// clusterData builds "healthy" samples around a few application-like
// centroids plus "anomalous" samples far from all of them.
func clusterData(nHealthy, nAnom, dim int, rng *rand.Rand) (healthy, anom *mat.Matrix) {
	centroids := mat.Randn(3, dim, 1.5, rng)
	healthy = mat.New(nHealthy, dim)
	for i := 0; i < nHealthy; i++ {
		c := centroids.Row(rng.Intn(3))
		for j := 0; j < dim; j++ {
			healthy.Data[i*healthy.Cols+j] = c[j] + rng.NormFloat64()*0.05
		}
	}
	anom = mat.New(nAnom, dim)
	for i := 0; i < nAnom; i++ {
		c := centroids.Row(rng.Intn(3))
		for j := 0; j < dim; j++ {
			// Shift a subset of features hard, like an injected anomaly.
			shift := 0.0
			if j%3 == 0 {
				shift = 3 + rng.Float64()
			}
			anom.Data[i*anom.Cols+j] = c[j] + shift + rng.NormFloat64()*0.05
		}
	}
	return healthy, anom
}

func smallConfig(dim int) Config {
	cfg := DefaultConfig(dim)
	cfg.HiddenDims = []int{16}
	cfg.LatentDim = 4
	cfg.Epochs = 300
	cfg.BatchSize = 32
	cfg.LearningRate = 3e-3
	return cfg
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{InputDim: 0, LatentDim: 1, LearningRate: 1, Epochs: 1},
		{InputDim: 1, LatentDim: 0, LearningRate: 1, Epochs: 1},
		{InputDim: 1, LatentDim: 1, LearningRate: 0, Epochs: 1},
		{InputDim: 1, LatentDim: 1, LearningRate: 1, Epochs: 0},
		{InputDim: 1, LatentDim: 1, LearningRate: 1, Epochs: 1, Beta: -1},
		{InputDim: 1, LatentDim: 1, LearningRate: 1, Epochs: 1, HiddenDims: []int{0}},
	}
	for i, cfg := range bad {
		cfg := cfg
		if err := cfg.Validate(); err == nil {
			t.Fatalf("config %d should be invalid", i)
		}
	}
	good := DefaultConfig(10)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFitReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	healthy, _ := clusterData(200, 0, 12, rng)
	cfg := smallConfig(12)
	v, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var first float64
	gotFirst := false
	stats, err := v.Fit(healthy, func(epoch int, loss, recon, kl float64) {
		if !gotFirst {
			first, gotFirst = loss, true
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.FinalLoss >= first/5 {
		t.Fatalf("loss %v -> %v: insufficient convergence", first, stats.FinalLoss)
	}
	if stats.FinalKL < 0 {
		t.Fatalf("KL must be non-negative, got %v", stats.FinalKL)
	}
}

// TestAnomalyScoreSeparation is the core behavioural test: after training on
// healthy data only, anomalous samples must have systematically higher
// reconstruction error.
func TestAnomalyScoreSeparation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	healthy, anom := clusterData(300, 50, 16, rng)
	v, err := New(smallConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Fit(healthy, nil); err != nil {
		t.Fatal(err)
	}
	hs := v.Scores(healthy)
	as := v.Scores(anom)
	h99 := mat.Percentile(hs, 99)
	above := 0
	for _, s := range as {
		if s > h99 {
			above++
		}
	}
	if frac := float64(above) / float64(len(as)); frac < 0.9 {
		t.Fatalf("only %.0f%% of anomalies exceed the 99th-percentile threshold", frac*100)
	}
}

func TestFitValidation(t *testing.T) {
	v, err := New(smallConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Fit(mat.New(3, 7), nil); err == nil {
		t.Fatal("expected width-mismatch error")
	}
	if _, err := v.Fit(mat.New(0, 4), nil); err == nil {
		t.Fatal("expected empty-set error")
	}
}

func TestEncodeDecodeShapes(t *testing.T) {
	v, err := New(smallConfig(10))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	x := mat.Randn(5, 10, 1, rng)
	ws := mat.NewWorkspace()
	h := v.encoder.InferInto(x, ws)
	mu, logvar := v.muHead.ApplyInto(h, ws), v.logvarHead.ApplyInto(h, ws)
	if mu.Rows != 5 || mu.Cols != 4 || logvar.Rows != 5 || logvar.Cols != 4 {
		t.Fatalf("latent shapes %dx%d %dx%d", mu.Rows, mu.Cols, logvar.Rows, logvar.Cols)
	}
	if xr := v.decoder.InferInto(mu, ws); xr.Rows != 5 || xr.Cols != 10 {
		t.Fatalf("decoded shape %dx%d", xr.Rows, xr.Cols)
	}
	if xr := v.reconstructInto(x, ws); xr.Rows != 5 || xr.Cols != 10 {
		t.Fatalf("reconstruction shape %dx%d", xr.Rows, xr.Cols)
	}
	// The generative direction: prior draws decode to input width.
	if s := v.decoder.InferInto(mat.Randn(7, 4, 1, rng), ws); s.Rows != 7 || s.Cols != 10 {
		t.Fatalf("sample shape %dx%d", s.Rows, s.Cols)
	}
}

// TestUnmarshalRejectsMalformedWidths loads artifacts whose sub-networks
// are each well formed but do not chain into one another or into Cfg.
// Each must fail at load rather than panic on its first score.
func TestUnmarshalRejectsMalformedWidths(t *testing.T) {
	// fields marshals a fresh VAE as its top-level JSON fields, so parts
	// can be swapped between models of different widths.
	fields := func(input, hidden, latent int) map[string]json.RawMessage {
		v, err := New(Config{InputDim: input, HiddenDims: []int{5, hidden}, LatentDim: latent, LearningRate: 1, Epochs: 1})
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		var f map[string]json.RawMessage
		if err := json.Unmarshal(data, &f); err != nil {
			t.Fatal(err)
		}
		return f
	}
	cases := []struct {
		field string
		from  map[string]json.RawMessage
	}{
		{"encoder", fields(7, 4, 3)},     // encoder input ≠ InputDim
		{"mu_head", fields(6, 2, 3)},     // head input ≠ encoder output
		{"logvar_head", fields(6, 4, 2)}, // head output ≠ LatentDim
		{"decoder", fields(6, 4, 2)},     // decoder input ≠ LatentDim
		{"decoder", fields(7, 4, 3)},     // decoder output ≠ InputDim
		{"encoder", map[string]json.RawMessage{"encoder": json.RawMessage(`{"layers":[]}`)}},
	}
	for i, tc := range cases {
		f := fields(6, 4, 3)
		f[tc.field] = tc.from[tc.field]
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &VAE{}); err == nil {
			t.Errorf("case %d: malformed %s loaded without error", i, tc.field)
		}
	}
}

func TestScoresDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	healthy, _ := clusterData(50, 0, 8, rng)
	cfg := smallConfig(8)
	cfg.Epochs = 50
	v, _ := New(cfg)
	if _, err := v.Fit(healthy, nil); err != nil {
		t.Fatal(err)
	}
	a := v.Scores(healthy)
	b := v.Scores(healthy)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("inference must be deterministic (mean reconstruction)")
		}
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	healthy, _ := clusterData(60, 0, 8, rng)
	cfg := smallConfig(8)
	cfg.Epochs = 60
	v, _ := New(cfg)
	if _, err := v.Fit(healthy, nil); err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	restored := &VAE{}
	if err := json.Unmarshal(blob, restored); err != nil {
		t.Fatal(err)
	}
	if restored.Cfg.InputDim != 8 {
		t.Fatalf("restored config = %+v", restored.Cfg)
	}
	a := v.Scores(healthy)
	b := restored.Scores(healthy)
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			t.Fatal("restored VAE scores differ")
		}
	}
}

func TestSeedReproducibility(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	healthy, _ := clusterData(40, 0, 6, rng)
	cfg := smallConfig(6)
	cfg.Epochs = 40
	run := func() []float64 {
		v, _ := New(cfg)
		if _, err := v.Fit(healthy, nil); err != nil {
			t.Fatal(err)
		}
		return v.Scores(healthy)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give identical training runs")
		}
	}
}

func TestNoHiddenLayers(t *testing.T) {
	cfg := smallConfig(5)
	cfg.HiddenDims = nil
	cfg.Epochs = 20
	v, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	x := mat.Randn(30, 5, 1, rng)
	if _, err := v.Fit(x, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: scores are non-negative and finite for any finite input, and
// the KL term of a fit never goes negative.
func TestQuickScoresFinite(t *testing.T) {
	cfg := smallConfig(6)
	cfg.Epochs = 15
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		v, err := New(cfg)
		if err != nil {
			return false
		}
		x := mat.Randn(20, 6, 2, rng)
		stats, err := v.Fit(x, nil)
		if err != nil || stats.FinalKL < -1e-9 {
			return false
		}
		for _, s := range v.Scores(x) {
			if s < 0 || math.IsNaN(s) || math.IsInf(s, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

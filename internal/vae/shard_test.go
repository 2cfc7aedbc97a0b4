package vae

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"
)

// fitWorkers trains a fresh, identically-seeded VAE at the given worker
// count and returns its serialized weights. JSON encodes float64 with
// exact round-trip precision, so byte equality is bit equality.
func fitWorkers(t *testing.T, workers int) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(29))
	healthy, _ := clusterData(160, 0, 10, rng)
	cfg := smallConfig(10)
	cfg.Epochs = 5
	cfg.BatchSize = 160 // 10 gradient shards per step: real fan-out at 8 workers
	cfg.Workers = workers
	v, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Fit(healthy, nil); err != nil {
		t.Fatal(err)
	}
	// The serialized model embeds the config; neutralize the knob under
	// test so the byte comparison covers exactly the learned weights.
	v.Cfg.Workers = 0
	blob, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestFitDeterministicAcrossWorkers pins DESIGN.md §11 for the VAE: the
// reparameterization noise is drawn serially per batch and gradient shards
// reduce in a fixed tree, so the trained weights are bit-identical for any
// Workers value. Run under -race this also exercises the sharded VAE
// backward at an 8-way fan-out.
func TestFitDeterministicAcrossWorkers(t *testing.T) {
	ref := fitWorkers(t, 1)
	for _, workers := range []int{2, 8} {
		if got := fitWorkers(t, workers); !bytes.Equal(got, ref) {
			t.Fatalf("Workers=%d: serialized model differs from Workers=1 (weights must be bit-identical)", workers)
		}
	}
}

// TestFitWorkersScoresFinite guards the parallel path end to end: scores
// from a model trained at a wide fan-out must be finite and usable.
func TestFitWorkersScoresFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	healthy, anom := clusterData(160, 8, 10, rng)
	cfg := smallConfig(10)
	cfg.Epochs = 5
	cfg.BatchSize = 160
	cfg.Workers = 8
	v, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Fit(healthy, nil); err != nil {
		t.Fatal(err)
	}
	for _, s := range append(v.Scores(healthy), v.Scores(anom)...) {
		if s != s {
			t.Fatal("NaN score from worker-trained model")
		}
	}
}

package serve

import (
	"context"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"prodigy/internal/mat"
)

// TestFlushStagingSizedToBatch pins a flush's memory to the rows it
// scores: one 1-row request through a fresh tier with a 4096-row size
// bound must stage into a 1-row buffer, not a MaxBatch-row one.
func TestFlushStagingSizedToBatch(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	const width = 2048
	p := trainProdigy(t, width)
	vecs := randVectorsSeeded(13, 1, width)

	// With one P the flusher shares the test's pool slots, and with the
	// collector off the detector's scratch warmed here stays pooled, so
	// the measurement sees the flush and not a cold detector.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	p.DetectBatch(mat.NewFromData(1, width, vecs[0]))

	tier := NewTier(p, Config{MaxBatch: 4096})
	defer tier.Stop()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := tier.ScoreBatch(context.Background(), vecs)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.BatchRows != len(vecs) {
		t.Fatalf("batch carried %d rows, want %d", res.BatchRows, len(vecs))
	}
	staged := float64(len(vecs) * width * 8)
	got := float64(after.TotalAlloc - before.TotalAlloc)
	t.Logf("first flush of %d×%d: %.0f B allocated (%.2f× the staged floats)", len(vecs), width, got, got/staged)
	if limit := 4 * staged; got > limit {
		t.Errorf("first flush allocated %.0f B, want ≤ %.0f (4× rows × width × 8)", got, limit)
	}
}

// TestFlushReleasesRequests checks that the flusher's reused batch slice
// does not keep answered requests reachable: once a batch is flushed, its
// requests' vectors must be collectable without waiting for a later batch
// to overwrite their slots.
func TestFlushReleasesRequests(t *testing.T) {
	p := testProdigy(t)
	tier := NewTier(p, Config{})
	defer tier.Stop()

	freed := make(chan struct{})
	scoreWithFinalizer(t, tier, len(p.FeatureNames()), freed)
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("a scored request's rows are still reachable after its batch flushed")
		}
	}
}

// scoreWithFinalizer scores row views over one backing array whose
// finalizer closes freed. Building and scoring them in their own frame
// leaves the caller holding no reference to the rows.
func scoreWithFinalizer(t *testing.T, tier *Tier, width int, freed chan struct{}) {
	t.Helper()
	const rows = 3
	rng := rand.New(rand.NewSource(9))
	backing := make([]float64, rows*width)
	for i := range backing {
		backing[i] = rng.NormFloat64()
	}
	vecs := make([][]float64, rows)
	for i := range vecs {
		vecs[i] = backing[i*width : (i+1)*width : (i+1)*width]
	}
	runtime.SetFinalizer(&backing[0], func(*float64) { close(freed) })
	if _, err := tier.ScoreBatch(context.Background(), vecs); err != nil {
		t.Fatal(err)
	}
}

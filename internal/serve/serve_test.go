package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"prodigy/internal/core"
	"prodigy/internal/mat"
	"prodigy/internal/pipeline"
	"prodigy/internal/vae"
)

// testProdigy trains a small but real pipeline: 96 samples × 24 features,
// a thin VAE, Chi-square selection down to 12 — fast enough for the race
// detector, real enough that scores are nontrivial.
func testProdigy(t testing.TB) *core.Prodigy { return trainProdigy(t, 24) }

// trainProdigy is testProdigy over a full feature space of the given
// width; selection still keeps 12 features, so training cost barely
// grows with it.
func trainProdigy(t testing.TB, features int) *core.Prodigy {
	t.Helper()
	const samples = 96
	rng := rand.New(rand.NewSource(7))
	names := make([]string, features)
	for i := range names {
		names[i] = fmt.Sprintf("f%02d", i)
	}
	x := mat.New(samples, features)
	meta := make([]pipeline.SampleMeta, samples)
	for i := 0; i < samples; i++ {
		label := pipeline.Healthy
		if i%6 == 5 {
			label = pipeline.Anomalous
		}
		for j := 0; j < features; j++ {
			v := rng.NormFloat64()
			if label == pipeline.Anomalous {
				v += 3
			}
			x.Set(i, j, v)
		}
		meta[i] = pipeline.SampleMeta{JobID: int64(i), Label: label}
	}
	ds := &pipeline.Dataset{FeatureNames: names, X: x, Meta: meta}
	cfg := core.DefaultConfig()
	cfg.VAE = vae.Config{HiddenDims: []int{16}, LatentDim: 4, Activation: "tanh",
		LearningRate: 1e-3, BatchSize: 32, Epochs: 4, Seed: 11}
	cfg.Trainer = pipeline.TrainerConfig{TopK: 12, ThresholdPercentile: 95, ScalerKind: "minmax"}
	p := core.New(cfg)
	if err := p.Fit(ds, ds); err != nil {
		t.Fatalf("fit: %v", err)
	}
	return p
}

// randVectors builds n random full-feature-space vectors.
func randVectors(rng *rand.Rand, n, width int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		v := make([]float64, width)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		out[i] = v
	}
	return out
}

// randVectorsSeeded is randVectors with a one-shot source.
func randVectorsSeeded(seed int64, n, width int) [][]float64 {
	return randVectors(rand.New(rand.NewSource(seed)), n, width)
}

// TestCoalescedBitIdentical proves the tentpole determinism claim: scores
// obtained through concurrent coalesced submission are bit-identical to
// per-request direct scoring of the same vectors.
func TestCoalescedBitIdentical(t *testing.T) {
	p := testProdigy(t)
	width := len(p.FeatureNames())
	rng := rand.New(rand.NewSource(21))
	vecs := randVectors(rng, 200, width)

	tier := NewTier(p, Config{Replicas: 2, Window: 5 * time.Millisecond})
	defer tier.Stop()

	gotScores := make([]float64, len(vecs))
	gotPreds := make([]int, len(vecs))
	batchSizes := make([]int, len(vecs))
	var wg sync.WaitGroup
	errs := make([]error, len(vecs))
	for i := range vecs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := tier.ScoreBatch(context.Background(), vecs[i:i+1])
			if err != nil {
				errs[i] = err
				return
			}
			gotScores[i] = res.Scores[0]
			gotPreds[i] = res.Preds[0]
			batchSizes[i] = res.BatchRows
		}(i)
	}
	wg.Wait()

	coalesced := 0
	for i := range vecs {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		preds, scores, threshold := p.DetectBatch(mat.NewFromData(1, width, vecs[i]))
		if gotScores[i] != scores[0] {
			t.Fatalf("request %d: coalesced score %v != direct score %v", i, gotScores[i], scores[0])
		}
		if gotPreds[i] != preds[0] {
			t.Fatalf("request %d: coalesced pred %d != direct pred %d", i, gotPreds[i], preds[0])
		}
		if threshold != p.Threshold() {
			t.Fatalf("threshold drifted during test")
		}
		if batchSizes[i] > 1 {
			coalesced++
		}
	}
	if coalesced == 0 {
		t.Fatalf("no request was coalesced with company; the test exercised only trivial batches")
	}
	t.Logf("%d/%d requests rode multi-row batches", coalesced, len(vecs))
}

// TestMultiRowRequestDemux checks that multi-row requests get contiguous,
// correctly demuxed subslices.
func TestMultiRowRequestDemux(t *testing.T) {
	p := testProdigy(t)
	width := len(p.FeatureNames())
	rng := rand.New(rand.NewSource(5))
	vecs := randVectors(rng, 17, width)

	tier := NewTier(p, Config{})
	defer tier.Stop()
	res, err := tier.ScoreBatch(context.Background(), vecs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scores) != len(vecs) || len(res.Preds) != len(vecs) {
		t.Fatalf("demux returned %d scores for %d rows", len(res.Scores), len(vecs))
	}
	x := mat.New(len(vecs), width)
	for i, v := range vecs {
		copy(x.Row(i), v)
	}
	_, want, _ := p.DetectBatch(x)
	for i := range vecs {
		if res.Scores[i] != want[i] {
			t.Fatalf("row %d: got %v want %v", i, res.Scores[i], want[i])
		}
	}
}

// TestSwapDuringFlight hammers the tier with scoring while Swap rolls new
// artifacts across the replicas — the -race companion to the convergence
// claim. Scores must come from exactly one of the deployed generations'
// thresholds (self-consistent snapshot), and the tier must converge after
// the last roll.
func TestSwapDuringFlight(t *testing.T) {
	p := testProdigy(t)
	width := len(p.FeatureNames())
	artifact := p.Artifact()
	tier := NewTier(p, Config{Replicas: 3, Window: time.Millisecond})
	defer tier.Stop()
	if tier.Replicas() != 3 {
		t.Fatalf("got %d replicas, want 3", tier.Replicas())
	}
	if !tier.Converged() {
		t.Fatalf("fresh tier not converged: %v", tier.Generations())
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				vecs := randVectors(rng, 1+rng.Intn(3), width)
				res, err := tier.ScoreBatch(context.Background(), vecs)
				if err != nil {
					t.Errorf("score during swap: %v", err)
					return
				}
				if res.Generation == 0 {
					t.Errorf("result carries generation 0")
					return
				}
			}
		}(int64(100 + w))
	}
	for i := 0; i < 5; i++ {
		if err := tier.Swap(artifact); err != nil {
			t.Fatalf("swap %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	if !tier.Converged() {
		t.Fatalf("tier did not converge after swaps: %v", tier.Generations())
	}
	gens := tier.Generations()
	// Each replica saw its initial deploy plus 5 swaps.
	if gens[0] < 6 {
		t.Fatalf("generation %d after 5 swaps, want >= 6", gens[0])
	}
}

// TestStopDrainsAndSheds checks shutdown semantics: Stop answers
// everything already admitted, and later submissions shed with
// ErrStopped.
func TestStopDrainsAndSheds(t *testing.T) {
	p := testProdigy(t)
	width := len(p.FeatureNames())
	rng := rand.New(rand.NewSource(3))
	tier := NewTier(p, Config{Window: 50 * time.Millisecond})

	var wg sync.WaitGroup
	errs := make([]error, 8)
	vecs := randVectors(rng, len(errs), width)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = tier.ScoreBatch(context.Background(), vecs[i:i+1])
		}(i)
	}
	// Give the submitters a moment to enqueue, then stop mid-window: the
	// drain path must flush them without waiting out the 50ms timer.
	time.Sleep(5 * time.Millisecond)
	start := time.Now()
	tier.Stop()
	wg.Wait()
	for i, err := range errs {
		if err != nil && !errors.Is(err, ErrStopped) {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if waited := time.Since(start); waited > 40*time.Millisecond {
		t.Errorf("stop took %v; drain should not wait out the window", waited)
	}
	if _, err := tier.ScoreBatch(context.Background(), randVectors(rng, 1, width)); !errors.Is(err, ErrStopped) {
		t.Fatalf("post-stop submit returned %v, want ErrStopped", err)
	}
	tier.Stop() // idempotent
}

// TestQueueFullShed pins the admission contract deterministically: a
// shard whose row reservation is at capacity sheds new work with
// ErrOverloaded (counted as queue_full) instead of blocking, and admits
// again once the backlog drains.
func TestQueueFullShed(t *testing.T) {
	p := testProdigy(t)
	width := len(p.FeatureNames())
	cfg := Config{Window: time.Millisecond, MaxBatch: 8, MaxQueue: 8}
	tier := NewTier(p, cfg)
	defer tier.Stop()
	sh := tier.shards[0]
	rng := rand.New(rand.NewSource(41))

	// Simulate a backlog the flusher has not staged yet: reserve every row
	// of the queue, exactly what concurrent admissions would have done.
	shedBefore := shedTotal.With(shedQueueFull).Value()
	sh.queued.Add(int64(cfg.MaxQueue))
	if _, err := sh.submit(context.Background(), randVectors(rng, 4, width)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("full queue: err = %v, want ErrOverloaded", err)
	}
	if got := shedTotal.With(shedQueueFull).Value() - shedBefore; got != 1 {
		t.Fatalf("serve_shed_total{reason=queue_full} rose by %v, want 1", got)
	}

	// A failed admission must release its reservation: the counter is back
	// at the simulated backlog, so draining it re-opens the shard.
	if q := sh.queued.Load(); q != int64(cfg.MaxQueue) {
		t.Fatalf("queued = %d after shed, want %d (reservation leaked)", q, cfg.MaxQueue)
	}
	sh.queued.Add(-int64(cfg.MaxQueue))
	res, err := sh.submit(context.Background(), randVectors(rng, 4, width))
	if err != nil {
		t.Fatalf("drained queue rejects work: %v", err)
	}
	if len(res.Scores) != 4 {
		t.Fatalf("got %d scores, want 4", len(res.Scores))
	}
}

// TestOverloadSmoke drives 32 workers at a tiny queue and checks the tier
// stays live: every request either completes or sheds cleanly, never
// hangs or fails with an unexpected error. Whether sheds occur depends on
// scheduler timing, so the count is logged, not asserted — the
// deterministic admission contract is TestQueueFullShed's job and the
// sustained-overload behavior is pinned by the saturation benchmark.
func TestOverloadSmoke(t *testing.T) {
	p := testProdigy(t)
	width := len(p.FeatureNames())
	tier := NewTier(p, Config{Window: time.Millisecond, MaxBatch: 8, MaxQueue: 8})
	defer tier.Stop()

	var wg sync.WaitGroup
	var mu sync.Mutex
	var ok, shed int
	for w := 0; w < 32; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 20; i++ {
				_, err := tier.ScoreBatch(context.Background(), randVectors(rng, 4, width))
				mu.Lock()
				switch {
				case err == nil:
					ok++
				case errors.Is(err, ErrOverloaded):
					shed++
				default:
					mu.Unlock()
					t.Errorf("unexpected error: %v", err)
					return
				}
				mu.Unlock()
			}
		}(int64(w))
	}
	wg.Wait()
	if ok == 0 {
		t.Fatalf("no request completed under overload")
	}
	t.Logf("completed=%d shed=%d", ok, shed)
}

// TestErrors covers the synchronous rejections.
func TestErrors(t *testing.T) {
	p := testProdigy(t)
	width := len(p.FeatureNames())
	rng := rand.New(rand.NewSource(9))
	tier := NewTier(p, Config{MaxBatch: 4})
	defer tier.Stop()
	if _, err := tier.ScoreBatch(context.Background(), nil); err == nil {
		t.Error("empty request accepted")
	}
	if _, err := tier.ScoreBatch(context.Background(), randVectors(rng, 5, width)); !errors.Is(err, ErrBatchTooLarge) {
		t.Errorf("oversized request returned %v, want ErrBatchTooLarge", err)
	}
	if _, err := tier.ScoreBatch(context.Background(), randVectors(rng, 1, width-1)); err == nil {
		t.Error("width-mismatched request accepted")
	}
	untrained := NewTier(core.New(core.DefaultConfig()), Config{})
	defer untrained.Stop()
	if _, err := untrained.ScoreBatch(context.Background(), randVectors(rng, 1, 3)); !errors.Is(err, ErrUntrained) {
		t.Errorf("untrained tier returned %v, want ErrUntrained", err)
	}
}

// TestJumpHashProperties pins the consistent-hash contract: full coverage,
// rough balance, and minimal movement when a replica is added.
func TestJumpHashProperties(t *testing.T) {
	const keys = 10000
	counts := make([]int, 5)
	moved := 0
	for k := 0; k < keys; k++ {
		h5 := jumpHash(KeyForJob(int64(k)), 5)
		h6 := jumpHash(KeyForJob(int64(k)), 6)
		counts[h5]++
		if h5 != h6 {
			if h6 != 5 {
				t.Fatalf("key %d moved %d→%d; jump hash may only move keys to the new bucket", k, h5, h6)
			}
			moved++
		}
	}
	for b, c := range counts {
		if c < keys/10 {
			t.Errorf("bucket %d underloaded: %d/%d", b, c, keys)
		}
	}
	// Growing 5→6 should move about 1/6 of keys.
	if moved < keys/12 || moved > keys/3 {
		t.Errorf("adding a replica moved %d/%d keys, want ≈1/6", moved, keys)
	}
}

// TestReplicaForJobStable pins job affinity: the same job always lands on
// the same replica.
func TestReplicaForJobStable(t *testing.T) {
	p := testProdigy(t)
	tier := NewTier(p, Config{Replicas: 4})
	defer tier.Stop()
	for job := int64(0); job < 50; job++ {
		a, b := tier.ReplicaForJob(job), tier.ReplicaForJob(job)
		if a != b {
			t.Fatalf("job %d routed to two replicas", job)
		}
	}
}

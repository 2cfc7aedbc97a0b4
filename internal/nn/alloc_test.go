package nn

import (
	"math/rand"
	"testing"

	"prodigy/internal/mat"
)

// These tests pin the PR's zero-allocation contract so it cannot silently
// regress: steady-state inference through a warm workspace performs no
// heap allocations at all, and a full training step stays at zero once the
// optimizer state is warm.

func TestInferIntoZeroAllocsSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net, err := NewMLP([]int{64, 32, 16, 8}, "tanh", "", rng)
	if err != nil {
		t.Fatal(err)
	}
	x := mat.Randn(16, 64, 1, rng)
	ws := mat.NewWorkspace()
	net.InferInto(x, ws) // warm: first pass stocks the buckets
	ws.Reset()
	allocs := testing.AllocsPerRun(100, func() {
		net.InferInto(x, ws)
		ws.Reset()
	})
	if allocs != 0 {
		t.Fatalf("steady-state InferInto: %v allocs per 16-row batch, want 0 (0 allocs/row)", allocs)
	}
}

func TestTrainStepZeroAllocsSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	net, err := NewMLP([]int{32, 16, 32}, "relu", "", rng)
	if err != nil {
		t.Fatal(err)
	}
	x := mat.Randn(64, 32, 1, rng)
	y := x.Clone()
	loss := MSELoss{}
	opt := NewAdam(1e-3)
	ws := mat.NewWorkspace()
	xb, yb := &mat.Matrix{}, &mat.Matrix{}
	params := net.Params()
	batch := make([]int, 16)
	for i := range batch {
		batch[i] = i * 3
	}
	// One full minibatch step, exactly as Train's inner loop runs it.
	step := func() {
		x.SelectRowsInto(xb, batch)
		y.SelectRowsInto(yb, batch)
		pred := net.ForwardInto(xb, ws)
		_, grad := loss.ComputeInto(pred, yb, ws)
		net.BackwardInto(grad, ws)
		ws.Reset()
		ClipGradients(params, 5)
		opt.Step(params)
	}
	step() // warm: workspace buckets fill, Adam lazily allocates moments
	allocs := testing.AllocsPerRun(50, step)
	if allocs != 0 {
		t.Fatalf("steady-state training step: %v allocs, want 0", allocs)
	}
}

// TestTrainMatchesIntoPath guards Train's loop machinery (shuffling,
// sharding, buffer reuse, BackwardParamsInto): it must produce the same
// weights as a straight-line reference loop run from the same seed, which
// gives every minibatch a fresh workspace and runs the plain
// ForwardInto/BackwardInto pair.
func TestTrainMatchesIntoPath(t *testing.T) {
	build := func() *Network {
		rng := rand.New(rand.NewSource(7))
		net, err := NewMLP([]int{8, 6, 8}, "tanh", "", rng)
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	dataRng := rand.New(rand.NewSource(8))
	x := mat.Randn(40, 8, 1, dataRng)

	trained := build()
	if _, err := Train(trained, x, x, MSELoss{}, NewSGD(0.05), TrainConfig{Epochs: 5, BatchSize: 16}, rand.New(rand.NewSource(9))); err != nil {
		t.Fatal(err)
	}

	ref := build()
	refOpt := NewSGD(0.05)
	rng := rand.New(rand.NewSource(9))
	idx := make([]int, x.Rows)
	for i := range idx {
		idx[i] = i
	}
	for epoch := 0; epoch < 5; epoch++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for start := 0; start < len(idx); start += 16 {
			end := start + 16
			if end > len(idx) {
				end = len(idx)
			}
			xb := x.SelectRows(idx[start:end])
			ws := mat.NewWorkspace()
			pred := ref.ForwardInto(xb, ws)
			_, grad := MSELoss{}.Compute(pred, xb)
			ref.BackwardInto(grad, ws)
			refOpt.Step(ref.Params())
		}
	}

	tp, rp := trained.Params(), ref.Params()
	for i := range tp {
		if !mat.Equal(tp[i].Value, rp[i].Value, 0) {
			t.Fatalf("param %d diverged between Train and reference loop", i)
		}
	}
}

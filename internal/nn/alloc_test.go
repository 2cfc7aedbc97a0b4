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
	// One full minibatch step, as the VAE and USAD fit loops run it.
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

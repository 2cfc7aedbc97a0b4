package nn

import (
	"math/rand"
	"testing"

	"prodigy/internal/mat"
)

func BenchmarkForward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	net, _ := NewMLP([]int{100, 64, 32, 100}, "tanh", "", rng)
	x := mat.Randn(256, 100, 1, rng)
	ws := mat.NewWorkspace()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ForwardInto(x, ws)
		ws.Reset()
	}
}

func BenchmarkTrainStep(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	net, _ := NewMLP([]int{100, 64, 32, 100}, "tanh", "", rng)
	x := mat.Randn(64, 100, 1, rng)
	opt := NewAdam(1e-3)
	loss := MSELoss{}
	ws := mat.NewWorkspace()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pred := net.ForwardInto(x, ws)
		_, grad := loss.ComputeInto(pred, x, ws)
		net.BackwardInto(grad, ws)
		ws.Reset()
		opt.Step(net.Params())
	}
}

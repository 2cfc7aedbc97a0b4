package prodigy

import (
	"math/rand"
	"testing"

	"prodigy/internal/baselines/usad"
	"prodigy/internal/mat"
	"prodigy/internal/nn"
)

// Kernel and training micro-benchmarks backing BENCH_matmul.json and
// BENCH_train.json (see bench_json_test.go). Every kernel writes into a
// reused destination, so each row should report 0 allocs/op.

func benchMatMulInto(b *testing.B, n int) {
	rng := rand.New(rand.NewSource(1))
	x := mat.Randn(n, n, 1, rng)
	y := mat.Randn(n, n, 1, rng)
	dst := mat.New(n, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mat.MatMulInto(dst, x, y)
	}
	reportMadds(b, n)
}

// reportMadds converts n×n×n multiply-adds into a throughput metric.
func reportMadds(b *testing.B, n int) {
	b.ReportMetric(float64(n)*float64(n)*float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mmadds/s")
}

func BenchmarkKernelMatMulInto128(b *testing.B) { benchMatMulInto(b, 128) }
func BenchmarkKernelMatMulInto256(b *testing.B) { benchMatMulInto(b, 256) }

func BenchmarkKernelMatMulTInto128(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := mat.Randn(128, 128, 1, rng)
	y := mat.Randn(128, 128, 1, rng)
	dst := mat.New(128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mat.MatMulTInto(dst, x, y)
	}
	reportMadds(b, 128)
}

func BenchmarkKernelTMatMulInto128(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := mat.Randn(128, 128, 1, rng)
	y := mat.Randn(128, 128, 1, rng)
	dst := mat.New(128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mat.TMatMulInto(dst, x, y)
	}
	reportMadds(b, 128)
}

// BenchmarkKernelMatMulBiasInto measures the fused dense-layer kernel at
// the shape Dense.ApplyInto runs per minibatch (64×100 through 100→64).
func BenchmarkKernelMatMulBiasInto(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := mat.Randn(64, 100, 1, rng)
	w := mat.Randn(100, 64, 1, rng)
	bias := make([]float64, 64)
	dst := mat.New(64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mat.MatMulBiasInto(dst, x, w, bias)
	}
}

// benchMLPTrainEpoch measures one epoch of plain autoencoder training on
// 256×100 features at batch size 64 — the nn.Train loop — at the given
// data-parallel fan-out. Results are bit-identical across fan-outs
// (DESIGN.md §11), so the W1/W8 pair isolates the parallel speedup from
// the single-core kernel wins.
func benchMLPTrainEpoch(b *testing.B, workers int) {
	rng := rand.New(rand.NewSource(1))
	x := mat.Randn(256, 100, 1, rng)
	net, err := nn.NewMLP([]int{100, 64, 32, 64, 100}, "relu", "", rng)
	if err != nil {
		b.Fatal(err)
	}
	opt := nn.NewAdam(1e-3)
	cfg := nn.TrainConfig{Epochs: 1, BatchSize: 64, ClipNorm: 5, Workers: workers}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nn.Train(net, x, x, nn.MSELoss{}, opt, cfg, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMLPTrainEpoch(b *testing.B)   { benchMLPTrainEpoch(b, 1) }
func BenchmarkMLPTrainEpochW8(b *testing.B) { benchMLPTrainEpoch(b, 8) }

// benchUSADTrainEpoch measures one adversarial USAD epoch (two
// autoencoders, three forward/backward passes per step) on 256×100.
func benchUSADTrainEpoch(b *testing.B, workers int) {
	rng := rand.New(rand.NewSource(1))
	x := mat.Randn(256, 100, 1, rng)
	cfg := usad.DefaultConfig(100)
	cfg.HiddenSize = 64
	cfg.LatentDim = 16
	cfg.Epochs = 1
	cfg.WarmupEpochs = 0
	cfg.BatchSize = 64
	cfg.Workers = workers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u, err := usad.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := u.Fit(x, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUSADTrainEpoch(b *testing.B)   { benchUSADTrainEpoch(b, 1) }
func BenchmarkUSADTrainEpochW8(b *testing.B) { benchUSADTrainEpoch(b, 8) }

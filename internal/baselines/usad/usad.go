// Package usad implements the USAD baseline (Audibert et al., KDD 2020) the
// paper compares against (§5.3): two autoencoders trained adversarially.
// AE1 learns to reconstruct the input while fooling AE2; AE2 learns to
// reconstruct real data well but to amplify the error of data that has
// already passed through AE1. The anomaly score combines both
// reconstruction errors with weights α and β.
//
// Following the paper's adaptation (§5.4.4), inputs are feature vectors
// extracted from raw telemetry, not sliding windows.
package usad

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"prodigy/internal/mat"
	"prodigy/internal/nn"
)

// Config holds USAD's architecture and training hyperparameters. Defaults
// follow the paper's grid-search optimum (Table 3): batch 256, 100 epochs,
// hidden size 200, α = β = 0.5.
type Config struct {
	InputDim   int `json:"input_dim"`
	HiddenSize int `json:"hidden_size"`
	LatentDim  int `json:"latent_dim"`
	BatchSize  int `json:"batch_size"`
	Epochs     int `json:"epochs"`
	// WarmupEpochs trains both autoencoders with plain reconstruction
	// before the adversarial schedule starts, stabilizing the minimax game.
	WarmupEpochs int     `json:"warmup_epochs"`
	LR           float64 `json:"lr"`
	Alpha        float64 `json:"alpha"`
	Beta         float64 `json:"beta"`
	Seed         int64   `json:"seed"`
	// Workers caps the data-parallel fan-out of each training step; 0 or
	// negative means GOMAXPROCS. Trained weights are bit-identical for
	// every value (DESIGN.md §11).
	Workers int `json:"workers,omitempty"`
}

// DefaultConfig returns the paper-tuned configuration for the given input
// dimensionality.
func DefaultConfig(inputDim int) Config {
	return Config{
		InputDim:     inputDim,
		HiddenSize:   200,
		LatentDim:    16,
		BatchSize:    256,
		Epochs:       100,
		WarmupEpochs: 30,
		LR:           1e-3,
		Alpha:        0.5,
		Beta:         0.5,
		Seed:         1,
	}
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	switch {
	case c.InputDim <= 0:
		return fmt.Errorf("usad: input dim %d", c.InputDim)
	case c.HiddenSize <= 0:
		return fmt.Errorf("usad: hidden size %d", c.HiddenSize)
	case c.LatentDim <= 0:
		return fmt.Errorf("usad: latent dim %d", c.LatentDim)
	case c.Epochs <= 0:
		return fmt.Errorf("usad: epochs %d", c.Epochs)
	case c.LR <= 0:
		return fmt.Errorf("usad: learning rate %v", c.LR)
	case c.Alpha < 0 || c.Beta < 0:
		return fmt.Errorf("usad: negative score weights α=%v β=%v", c.Alpha, c.Beta)
	}
	return nil
}

// USAD is the two-autoencoder adversarial model.
type USAD struct {
	Cfg Config
	ae1 *nn.Network
	ae2 *nn.Network
}

// New constructs an untrained USAD model.
func New(cfg Config) (*USAD, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	// As in the original USAD, the decoders end in a sigmoid so that
	// reconstructions are bounded in [0, 1]; this keeps the adversarial
	// minimax game from diverging. Inputs are expected min-max scaled,
	// which is how the Prodigy pipeline feeds every model.
	widths := []int{cfg.InputDim, cfg.HiddenSize, cfg.LatentDim, cfg.HiddenSize, cfg.InputDim}
	ae1, err := nn.NewMLP(widths, "relu", "sigmoid", rng)
	if err != nil {
		return nil, err
	}
	ae2, err := nn.NewMLP(widths, "relu", "sigmoid", rng)
	if err != nil {
		return nil, err
	}
	return &USAD{Cfg: cfg, ae1: ae1, ae2: ae2}, nil
}

// Fit trains both autoencoders on x (healthy samples). The adversarial
// weights shift over epochs as in the original paper: at epoch n (1-based)
// the direct-reconstruction term is weighted 1/n and the adversarial term
// 1 − 1/n.
func (u *USAD) Fit(x *mat.Matrix, progress func(epoch int, l1, l2 float64)) error {
	if x.Cols != u.Cfg.InputDim {
		return fmt.Errorf("usad: input has %d features, config expects %d", x.Cols, u.Cfg.InputDim)
	}
	if x.Rows == 0 {
		return errors.New("usad: empty training set")
	}
	rng := rand.New(rand.NewSource(u.Cfg.Seed + 1))
	opt1 := nn.NewAdam(u.Cfg.LR)
	opt2 := nn.NewAdam(u.Cfg.LR)
	bs := u.Cfg.BatchSize
	if bs <= 0 || bs > x.Rows {
		bs = x.Rows
	}
	idx := make([]int, x.Rows)
	for i := range idx {
		idx[i] = i
	}
	// Data-parallel fit (DESIGN.md §11): one sharder per phase, since the
	// two phases step different parameter sets with an optimizer barrier
	// between them. Phase 1 trains AE1 with AE2 frozen (its replicas only
	// run forward passes and input-gradient backprop); phase 2 trains AE2
	// and reads AE1 through the root's stateless InferInto, which needs no
	// replica at all. All buffers are fit-lifetime and refilled in place —
	// steady-state steps do not touch the allocator.
	workers := nn.TrainConfig{Workers: u.Cfg.Workers}.EffectiveWorkers()
	sh1 := nn.NewSharder(workers, bs, []*nn.Network{u.ae1}, []*nn.Network{u.ae2})
	sh2 := nn.NewSharder(workers, bs, []*nn.Network{u.ae2}, nil)
	xb := &mat.Matrix{}
	xv1 := make([]*mat.Matrix, sh1.Workers())
	for w := range xv1 {
		xv1[w] = &mat.Matrix{}
	}
	xv2 := make([]*mat.Matrix, sh2.Workers())
	for w := range xv2 {
		xv2[w] = &mat.Matrix{}
	}
	d1Shard := make([]float64, sh1.MaxShards())
	a1Shard := make([]float64, sh1.MaxShards())
	d2Shard := make([]float64, sh2.MaxShards())
	a2Shard := make([]float64, sh2.MaxShards())
	mse := nn.MSELoss{}
	rows := 0
	a, b := 1.0, 0.0
	// Phase 1: update AE1 with L1 = a·MSE(x, AE1(x)) + b·MSE(x, AE2(AE1(x))).
	// One AE1 forward serves both loss terms: the direct gradient and the
	// adversarial gradient (flowing through frozen AE2's input-only
	// backward) are merged before a single AE1 backward pass, which also
	// skips AE1's innermost dx product since its input is data. During
	// warmup (b = 0) the adversarial half is skipped entirely.
	step1 := func(w, shard, lo, hi int, train, frozen []*nn.Network, ws *mat.Workspace) {
		srows := hi - lo
		xs := mat.RowsView(xv1[w], xb, lo, hi)
		ae1, ae2 := train[0], frozen[0]
		scale := float64(srows) / float64(rows)
		w1 := ae1.ForwardInto(xs, ws)
		lossDirect, grad := mse.ComputeInto(w1, xs, ws)
		grad.Scale(a * scale)
		d1Shard[shard] = lossDirect * float64(srows)
		a1Shard[shard] = 0
		if b > 0 {
			w2 := ae2.ForwardInto(w1, ws)
			lossAdv, grad2 := mse.ComputeInto(w2, xs, ws)
			grad2.Scale(b * scale)
			a1Shard[shard] = lossAdv * float64(srows)
			mat.AddInPlace(grad, ae2.BackwardInputInto(grad2, ws))
		}
		ae1.BackwardParamsInto(grad, ws)
	}
	// Phase 2: update AE2 with L2 = a·MSE(x, AE2(x)) − b·MSE(x, AE2(AE1(x))).
	// AE1 is frozen and already stepped this batch (replicas share the
	// root's values, so the phase-1 update is visible); the gradient stops
	// at AE2's input, so both AE2 backwards are params-only.
	step2 := func(w, shard, lo, hi int, train, _ []*nn.Network, ws *mat.Workspace) {
		srows := hi - lo
		xs := mat.RowsView(xv2[w], xb, lo, hi)
		ae2 := train[0]
		scale := float64(srows) / float64(rows)
		v2 := ae2.ForwardInto(xs, ws)
		lossDirect, gradD := mse.ComputeInto(v2, xs, ws)
		gradD.Scale(a * scale)
		d2Shard[shard] = lossDirect * float64(srows)
		ae2.BackwardParamsInto(gradD, ws)
		a2Shard[shard] = 0
		if b > 0 {
			w1 := u.ae1.InferInto(xs, ws)
			w2 := ae2.ForwardInto(w1, ws)
			lossAdv, gradA := mse.ComputeInto(w2, xs, ws)
			gradA.Scale(-b * scale)
			a2Shard[shard] = lossAdv * float64(srows)
			ae2.BackwardParamsInto(gradA, ws)
		}
	}
	p1, p2 := u.ae1.Params(), u.ae2.Params()
	warmup := u.Cfg.WarmupEpochs
	if warmup < 0 {
		warmup = 0
	}
	for epoch := 1; epoch <= warmup+u.Cfg.Epochs; epoch++ {
		//lint:ignore detorder observability-only: epoch wall-clock feeds the progress callback, never the adversarial schedule or weights
		epochStart := time.Now()
		// Warmup: pure reconstruction (a=1, b=0); then the USAD schedule
		// with n counting adversarial epochs. Unlike the original, the
		// adversarial weight is capped at 1/2: with two fully separate
		// autoencoders (our adaptation), letting b → 1 degenerates AE2's
		// objective into maximizing its own reconstruction error once AE1
		// reconstructs well, which collapses both models. At b = a = 1/2
		// the direct and adversarial pressures balance.
		a, b = 1.0, 0.0
		if epoch > warmup {
			b = 1 - 1/float64(epoch-warmup)
			if b > 0.5 {
				b = 0.5
			}
			a = 1 - b
		}
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		var sum1, sum2 float64
		batches := 0
		for start := 0; start < len(idx); start += bs {
			end := start + bs
			if end > len(idx) {
				end = len(idx)
			}
			x.SelectRowsInto(xb, idx[start:end])
			rows = end - start

			// Phase 1 fan-out, then the optimizer barrier: phase 2 must see
			// AE1's updated weights, exactly as in the serial schedule.
			shards := sh1.Run(rows, step1)
			sh1.Reduce(shards)
			nn.ClipGradients(p1, 5)
			opt1.Step(p1)

			shards = sh2.Run(rows, step2)
			sh2.Reduce(shards)
			nn.ClipGradients(p2, 5)
			opt2.Step(p2)

			// Shard-ordered loss sums keep the reported numbers
			// deterministic across worker counts too.
			var d1, a1, d2, a2 float64
			for s := 0; s < shards; s++ {
				d1 += d1Shard[s]
				a1 += a1Shard[s]
				d2 += d2Shard[s]
				a2 += a2Shard[s]
			}
			fr := float64(rows)
			sum1 += a*d1/fr + b*a1/fr
			sum2 += a*d2/fr - b*a2/fr
			batches++
		}
		if math.IsNaN(sum1) || math.IsNaN(sum2) {
			return fmt.Errorf("usad: training diverged at epoch %d", epoch)
		}
		nn.ObserveEpoch((sum1+sum2)/(2*float64(batches)), len(idx), time.Since(epochStart))
		if progress != nil && (epoch%10 == 0 || epoch == warmup+u.Cfg.Epochs) {
			progress(epoch, sum1/float64(batches), sum2/float64(batches))
		}
	}
	return nil
}

// Scores returns the per-sample anomaly score
// α·MSE(x, AE1(x)) + β·MSE(x, AE2(AE1(x))). The pass is stateless, so
// concurrent scoring through one shared USAD is race-free (training via
// Fit remains single-goroutine): matrix buffers come from a pooled
// workspace held only for the duration of the call.
func (u *USAD) Scores(x *mat.Matrix) []float64 {
	ws := mat.GetWorkspace()
	defer mat.Release(ws)
	w1 := u.ae1.InferInto(x, ws)
	direct := nn.RowMSE(w1, x)
	w2 := u.ae2.InferInto(w1, ws)
	adv := nn.RowMSE(w2, x)
	out := make([]float64, x.Rows)
	for i := range out {
		out[i] = u.Cfg.Alpha*direct[i] + u.Cfg.Beta*adv[i]
	}
	return out
}

// persisted is the JSON envelope for a trained USAD model.
type persisted struct {
	Cfg Config          `json:"config"`
	AE1 json.RawMessage `json:"ae1"`
	AE2 json.RawMessage `json:"ae2"`
}

// MarshalJSON serializes the configuration and both autoencoders.
func (u *USAD) MarshalJSON() ([]byte, error) {
	ae1, err := json.Marshal(u.ae1)
	if err != nil {
		return nil, err
	}
	ae2, err := json.Marshal(u.ae2)
	if err != nil {
		return nil, err
	}
	return json.Marshal(persisted{Cfg: u.Cfg, AE1: ae1, AE2: ae2})
}

// UnmarshalJSON restores a USAD serialized by MarshalJSON.
func (u *USAD) UnmarshalJSON(data []byte) error {
	var p persisted
	if err := json.Unmarshal(data, &p); err != nil {
		return err
	}
	u.Cfg = p.Cfg
	u.ae1 = &nn.Network{}
	if err := json.Unmarshal(p.AE1, u.ae1); err != nil {
		return err
	}
	u.ae2 = &nn.Network{}
	if err := json.Unmarshal(p.AE2, u.ae2); err != nil {
		return err
	}
	// Both autoencoders must map InputDim → InputDim, so a malformed
	// artifact fails at load instead of panicking on its first score.
	for i, ae := range []*nn.Network{u.ae1, u.ae2} {
		in, out := 0, 0
		for _, l := range ae.Layers {
			if d, ok := l.(*nn.Dense); ok {
				if in == 0 {
					in = d.In()
				}
				out = d.Out()
			}
		}
		if in != u.Cfg.InputDim || out != u.Cfg.InputDim {
			return fmt.Errorf("usad: ae%d maps %d → %d, config input dim is %d", i+1, in, out, u.Cfg.InputDim)
		}
	}
	return nil
}

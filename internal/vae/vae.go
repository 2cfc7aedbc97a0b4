// Package vae implements the variational autoencoder at the heart of
// Prodigy (paper §3.3): an encoder mapping feature vectors to the mean and
// log-variance of a Gaussian posterior q(z|x), the reparameterization trick
// z = μ + σ⊙ε, a decoder p(x|z), and training by maximizing the evidence
// lower bound (reconstruction term minus KL divergence to the standard
// normal prior).
//
// Anomaly scoring follows §3.4: a sample's score is the mean absolute error
// between the input and its deterministic reconstruction through the
// posterior mean.
package vae

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

// Config describes a VAE architecture and its training hyperparameters.
// The defaults mirror the paper's optimal grid-search values (Table 3):
// learning rate 1e-4, batch size 256, 2400 epochs.
type Config struct {
	InputDim   int    `json:"input_dim"`
	HiddenDims []int  `json:"hidden_dims"` // encoder widths; decoder mirrors them
	LatentDim  int    `json:"latent_dim"`
	Activation string `json:"activation"`

	LearningRate float64 `json:"learning_rate"`
	BatchSize    int     `json:"batch_size"`
	Epochs       int     `json:"epochs"`
	// Beta weights the KL term of the ELBO. Values below 1 trade latent
	// regularity for reconstruction fidelity, which favours detection.
	Beta float64 `json:"beta"`
	// ClipNorm bounds the global gradient norm per step; 0 disables.
	ClipNorm float64 `json:"clip_norm"`
	Seed     int64   `json:"seed"`
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
		HiddenDims:   []int{64, 32},
		LatentDim:    8,
		Activation:   "tanh",
		LearningRate: 1e-4,
		BatchSize:    256,
		Epochs:       2400,
		Beta:         1e-3,
		ClipNorm:     5,
		Seed:         1,
	}
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	switch {
	case c.InputDim <= 0:
		return fmt.Errorf("vae: input dim %d", c.InputDim)
	case c.LatentDim <= 0:
		return fmt.Errorf("vae: latent dim %d", c.LatentDim)
	case c.LearningRate <= 0:
		return fmt.Errorf("vae: learning rate %v", c.LearningRate)
	case c.Epochs <= 0:
		return fmt.Errorf("vae: epochs %d", c.Epochs)
	case c.Beta < 0:
		return fmt.Errorf("vae: beta %v", c.Beta)
	}
	for _, h := range c.HiddenDims {
		if h <= 0 {
			return fmt.Errorf("vae: hidden dim %d", h)
		}
	}
	return nil
}

// VAE is a trained or in-training variational autoencoder.
type VAE struct {
	Cfg Config

	encoder    *nn.Network // input -> last hidden
	muHead     *nn.Dense   // hidden -> latent mean
	logvarHead *nn.Dense   // hidden -> latent log-variance
	decoder    *nn.Network // latent -> reconstruction
}

// New constructs an untrained VAE from the configuration.
func New(cfg Config) (*VAE, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	encWidths := append([]int{cfg.InputDim}, cfg.HiddenDims...)
	if len(cfg.HiddenDims) == 0 {
		// Degenerate but legal: encode straight from the input.
		encWidths = []int{cfg.InputDim, cfg.InputDim}
	}
	encoder, err := nn.NewMLP(encWidths, cfg.Activation, cfg.Activation, rng)
	if err != nil {
		return nil, err
	}
	lastHidden := encWidths[len(encWidths)-1]

	// Decoder mirrors the encoder: latent -> reversed hidden -> input.
	decWidths := []int{cfg.LatentDim}
	for i := len(cfg.HiddenDims) - 1; i >= 0; i-- {
		decWidths = append(decWidths, cfg.HiddenDims[i])
	}
	decWidths = append(decWidths, cfg.InputDim)
	decoder, err := nn.NewMLP(decWidths, cfg.Activation, "", rng)
	if err != nil {
		return nil, err
	}
	return &VAE{
		Cfg:        cfg,
		encoder:    encoder,
		muHead:     nn.NewDense(lastHidden, cfg.LatentDim, rng),
		logvarHead: nn.NewDense(lastHidden, cfg.LatentDim, rng),
		decoder:    decoder,
	}, nil
}

// logvarBound keeps exp(logvar) in a numerically safe range.
const logvarBound = 10

// reconstructInto returns the deterministic reconstruction of x through
// the posterior mean (no sampling), as used for anomaly scoring, drawn
// from ws. It skips the logvar head entirely — the deterministic
// reconstruction only consumes the posterior mean, so scoring pays for one
// head instead of two.
func (v *VAE) reconstructInto(x *mat.Matrix, ws *mat.Workspace) *mat.Matrix {
	h := v.encoder.InferInto(x, ws)
	mu := v.muHead.ApplyInto(h, ws)
	if h != x {
		ws.Put(h)
	}
	out := v.decoder.InferInto(mu, ws)
	return out
}

// Scores returns the per-sample reconstruction MAE of x (paper §3.3: "we
// measure the reconstruction error using mean absolute error for each
// sample"). It mutates no model state, so concurrent scoring through one
// shared VAE is race-free: the matrix buffers come from a pooled
// workspace held only for the duration of the call.
func (v *VAE) Scores(x *mat.Matrix) []float64 {
	ws := mat.GetWorkspace()
	defer mat.Release(ws)
	return nn.RowMAE(v.reconstructInto(x, ws), x)
}

// TrainStats summarizes one training run.
type TrainStats struct {
	FinalLoss  float64
	FinalRecon float64
	FinalKL    float64
	Epochs     int
}

// Fit trains the VAE on x (healthy samples only, per the paper) and returns
// training statistics. Progress, if non-nil, is called every logEvery-ish
// epochs with the current epoch and loss components.
func (v *VAE) Fit(x *mat.Matrix, progress func(epoch int, loss, recon, kl float64)) (*TrainStats, error) {
	if x.Cols != v.Cfg.InputDim {
		return nil, fmt.Errorf("vae: input has %d features, config expects %d", x.Cols, v.Cfg.InputDim)
	}
	if x.Rows == 0 {
		return nil, errors.New("vae: empty training set")
	}
	rng := rand.New(rand.NewSource(v.Cfg.Seed + 1))
	opt := nn.NewAdam(v.Cfg.LearningRate)
	bs := v.Cfg.BatchSize
	if bs <= 0 || bs > x.Rows {
		bs = x.Rows
	}
	idx := make([]int, x.Rows)
	for i := range idx {
		idx[i] = i
	}
	// Data-parallel fit (DESIGN.md §11): the sharder owns per-worker
	// replicas of all four sub-networks (the two heads wrapped as
	// single-layer networks so they replicate like everything else),
	// per-worker workspaces and per-shard gradient accumulators; the
	// reduction order is fixed by the shard count, so the trained weights
	// are bit-identical for any Workers value. The minibatch buffer,
	// shard views and eps matrix below are fit-lifetime and refilled in
	// place — steady-state steps do not touch the allocator.
	muNet := &nn.Network{Layers: []nn.Layer{v.muHead}}
	lvNet := &nn.Network{Layers: []nn.Layer{v.logvarHead}}
	workers := nn.EffectiveWorkers(v.Cfg.Workers)
	sh := nn.NewSharder(workers, bs, []*nn.Network{v.encoder, muNet, lvNet, v.decoder}, nil)
	xb := &mat.Matrix{}
	epsFull := mat.New(bs, v.Cfg.LatentDim)
	epsB := &mat.Matrix{}
	xv := make([]*mat.Matrix, sh.Workers())
	ev := make([]*mat.Matrix, sh.Workers())
	for w := range xv {
		xv[w], ev[w] = &mat.Matrix{}, &mat.Matrix{}
	}
	reconShard := make([]float64, sh.MaxShards())
	klShard := make([]float64, sh.MaxShards())
	rows := 0
	klScale := 0.0
	// One shard closure for the whole fit; per-step state threads through
	// the captured variables above.
	step := func(w, shard, lo, hi int, train, _ []*nn.Network, ws *mat.Workspace) {
		srows := hi - lo
		xs := mat.RowsView(xv[w], xb, lo, hi)
		eps := mat.RowsView(ev[w], epsB, lo, hi)
		enc, muN, lvN, dec := train[0], train[1], train[2], train[3]

		// Forward.
		h := enc.ForwardInto(xs, ws)
		mu := muN.ForwardInto(h, ws)
		logvar := lvN.ForwardInto(h, ws)
		// Clamp log-variance; gradients pass straight through inside the
		// bound and are zeroed outside it. The mask is a float workspace
		// matrix (1 = clipped) rather than a fresh []bool.
		clipped := ws.Get(srows, v.Cfg.LatentDim)
		for i, lv := range logvar.Data {
			clipped.Data[i] = 0
			if lv > logvarBound || lv < -logvarBound {
				clipped.Data[i] = 1
				logvar.Data[i] = mat.Clamp(lv, -logvarBound, logvarBound)
			}
		}
		std := logvar.ApplyInto(ws.Get(srows, v.Cfg.LatentDim), func(lv float64) float64 { return math.Exp(0.5 * lv) })
		// Reparameterization trick (eq. 4): z = μ + σ⊙ε, with ε drawn
		// serially for the whole batch before the fan-out so the rng
		// stream is independent of the worker count.
		z := mat.MulInto(ws.Get(srows, v.Cfg.LatentDim), std, eps)
		mat.AddInto(z, mu, z)
		xr := dec.ForwardInto(z, ws)

		// Reconstruction term: MSE normalized by the shard, rescaled so the
		// summed shard gradients equal the batch-mean gradient. The factor
		// depends only on the shard boundaries, never the worker count.
		recon, gradXr := nn.MSELoss{}.ComputeInto(xr, xs, ws)
		gradXr.Scale(float64(srows) / float64(rows))
		reconShard[shard] = recon * float64(srows)

		// KL divergence to N(0, I): raw elementwise sum here, normalized
		// once per batch after the shard-ordered reduction.
		kl := 0.0
		for i := range mu.Data {
			m, lv := mu.Data[i], logvar.Data[i]
			kl += -0.5 * (1 + lv - m*m - math.Exp(lv))
		}
		klShard[shard] = kl

		// Backward through the decoder to z.
		gradZ := dec.BackwardInto(gradXr, ws)

		// Split gradZ into the μ and logvar paths, adding the KL gradients
		// (klScale carries the global batch normalization, so no further
		// shard scaling is needed on the KL terms).
		gradMu := ws.Get(srows, v.Cfg.LatentDim)
		gradLogvar := ws.Get(srows, v.Cfg.LatentDim)
		for i := range gradZ.Data {
			gz := gradZ.Data[i]
			m, lv := mu.Data[i], logvar.Data[i]
			// dz/dμ = 1; dKL/dμ = μ.
			gradMu.Data[i] = gz + klScale*m
			// dz/dlogvar = ε·σ/2; dKL/dlogvar = -1/2(1 - e^logvar).
			g := gz*eps.Data[i]*std.Data[i]*0.5 - klScale*0.5*(1-math.Exp(lv))
			if clipped.Data[i] > 0.5 {
				g = 0
			}
			gradLogvar.Data[i] = g
		}

		// Backward through the two heads into the shared encoder trunk; the
		// encoder input is data, so its innermost dx product is skipped.
		gh := muN.BackwardInto(gradMu, ws)
		mat.AddInPlace(gh, lvN.BackwardInto(gradLogvar, ws))
		enc.BackwardParamsInto(gh, ws)
	}
	params := v.params()
	stats := &TrainStats{Epochs: v.Cfg.Epochs}
	for epoch := 0; epoch < v.Cfg.Epochs; epoch++ {
		//lint:ignore detorder observability-only: epoch wall-clock feeds TrainStats and the progress callback, never weights or scores
		epochStart := time.Now()
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		var epochLoss, epochRecon, epochKL float64
		batches := 0
		for start := 0; start < len(idx); start += bs {
			end := start + bs
			if end > len(idx) {
				end = len(idx)
			}
			x.SelectRowsInto(xb, idx[start:end])
			rows = end - start
			norm := float64(rows) * float64(v.Cfg.InputDim)
			klScale = v.Cfg.Beta / norm
			mat.RandnInto(mat.RowsView(epsB, epsFull, 0, rows), 1, rng)
			shards := sh.Run(rows, step)
			sh.Reduce(shards)
			if v.Cfg.ClipNorm > 0 {
				nn.ClipGradients(params, v.Cfg.ClipNorm)
			}
			opt.Step(params)
			// Shard-ordered sums keep the reported losses deterministic
			// across worker counts too.
			var recon, kl float64
			for s := 0; s < shards; s++ {
				recon += reconShard[s]
				kl += klShard[s]
			}
			recon /= float64(rows)
			kl /= norm
			epochLoss += recon + v.Cfg.Beta*kl
			epochRecon += recon
			epochKL += kl
			batches++
		}
		stats.FinalLoss = epochLoss / float64(batches)
		stats.FinalRecon = epochRecon / float64(batches)
		stats.FinalKL = epochKL / float64(batches)
		nn.ObserveEpoch(stats.FinalLoss, len(idx), time.Since(epochStart))
		if math.IsNaN(stats.FinalLoss) {
			return nil, fmt.Errorf("vae: training diverged at epoch %d", epoch)
		}
		if progress != nil && (epoch%100 == 0 || epoch == v.Cfg.Epochs-1) {
			progress(epoch, stats.FinalLoss, stats.FinalRecon, stats.FinalKL)
		}
	}
	return stats, nil
}

func (v *VAE) params() []*nn.Param {
	ps := v.encoder.Params()
	ps = append(ps, v.muHead.Params()...)
	ps = append(ps, v.logvarHead.Params()...)
	ps = append(ps, v.decoder.Params()...)
	return ps
}

// persisted is the JSON envelope for a trained VAE.
type persisted struct {
	Cfg        Config          `json:"config"`
	Encoder    json.RawMessage `json:"encoder"`
	MuHead     json.RawMessage `json:"mu_head"`
	LogvarHead json.RawMessage `json:"logvar_head"`
	Decoder    json.RawMessage `json:"decoder"`
}

// MarshalJSON serializes the configuration and all weights.
func (v *VAE) MarshalJSON() ([]byte, error) {
	enc, err := json.Marshal(v.encoder)
	if err != nil {
		return nil, err
	}
	muNet := &nn.Network{Layers: []nn.Layer{v.muHead}}
	mu, err := json.Marshal(muNet)
	if err != nil {
		return nil, err
	}
	lvNet := &nn.Network{Layers: []nn.Layer{v.logvarHead}}
	lv, err := json.Marshal(lvNet)
	if err != nil {
		return nil, err
	}
	dec, err := json.Marshal(v.decoder)
	if err != nil {
		return nil, err
	}
	return json.Marshal(persisted{Cfg: v.Cfg, Encoder: enc, MuHead: mu, LogvarHead: lv, Decoder: dec})
}

// UnmarshalJSON restores a VAE serialized by MarshalJSON.
func (v *VAE) UnmarshalJSON(data []byte) error {
	var p persisted
	if err := json.Unmarshal(data, &p); err != nil {
		return err
	}
	v.Cfg = p.Cfg
	v.encoder = &nn.Network{}
	if err := json.Unmarshal(p.Encoder, v.encoder); err != nil {
		return err
	}
	v.decoder = &nn.Network{}
	if err := json.Unmarshal(p.Decoder, v.decoder); err != nil {
		return err
	}
	muNet := &nn.Network{}
	if err := json.Unmarshal(p.MuHead, muNet); err != nil {
		return err
	}
	lvNet := &nn.Network{}
	if err := json.Unmarshal(p.LogvarHead, lvNet); err != nil {
		return err
	}
	var ok bool
	if len(muNet.Layers) != 1 {
		return fmt.Errorf("vae: mu head has %d layers", len(muNet.Layers))
	}
	if v.muHead, ok = muNet.Layers[0].(*nn.Dense); !ok {
		return errors.New("vae: mu head is not a dense layer")
	}
	if len(lvNet.Layers) != 1 {
		return fmt.Errorf("vae: logvar head has %d layers", len(lvNet.Layers))
	}
	if v.logvarHead, ok = lvNet.Layers[0].(*nn.Dense); !ok {
		return errors.New("vae: logvar head is not a dense layer")
	}
	return v.checkWidths()
}

// checkWidths verifies that the restored sub-networks chain into each
// other and match Cfg, so a malformed artifact fails at load instead of
// panicking on its first score.
func (v *VAE) checkWidths() error {
	encIn, encOut := denseEnds(v.encoder)
	decIn, decOut := denseEnds(v.decoder)
	mu, lv := v.muHead, v.logvarHead
	in, latent := v.Cfg.InputDim, v.Cfg.LatentDim
	if encIn != in || mu.In() != encOut || lv.In() != encOut ||
		mu.Out() != latent || lv.Out() != latent || decIn != latent || decOut != in {
		return fmt.Errorf("vae: widths do not chain for input %d, latent %d: encoder %d→%d, heads %d→%d and %d→%d, decoder %d→%d",
			in, latent, encIn, encOut, mu.In(), mu.Out(), lv.In(), lv.Out(), decIn, decOut)
	}
	return nil
}

// denseEnds returns the input width of n's first dense layer and the
// output width of its last, or zeros when n has none.
// nn.Network.UnmarshalJSON has already checked that the dense layers in
// between chain.
func denseEnds(n *nn.Network) (in, out int) {
	for _, l := range n.Layers {
		if d, ok := l.(*nn.Dense); ok {
			if in == 0 {
				in = d.In()
			}
			out = d.Out()
		}
	}
	return in, out
}

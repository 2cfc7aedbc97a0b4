package nn

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"prodigy/internal/mat"
	"prodigy/internal/obs"
)

// Training telemetry: the loss trajectory, epoch wall time and
// data-parallel throughput of whatever model is currently fitting. Single
// gauges still suffice for loss and throughput because there is at most
// one in-flight fit per deployment operation worth watching; within that
// fit, gradient work now fans out across TrainConfig.Workers goroutines
// (DESIGN.md §11) and nn_train_workers_busy tracks the live fan-out.
var (
	trainLoss = obs.Default.NewGauge("nn_train_loss",
		"Mean per-sample training loss of the most recently completed epoch.")
	trainEpochs = obs.Default.NewCounter("nn_train_epochs_total",
		"Completed training epochs across all models in this process.")
	epochDur = obs.Default.NewHistogram("nn_epoch_seconds",
		"Wall time per training epoch.", obs.DefBuckets)
	trainSamplesPerSec = obs.Default.NewGauge("nn_train_samples_per_second",
		"Samples processed per second by the most recently completed training epoch.")
	trainBusyWorkers = obs.Default.NewGauge("nn_train_workers_busy",
		"Data-parallel training workers currently running gradient shards.")
)

// ObserveEpoch records the shared per-epoch telemetry; the VAE and USAD
// fit loops report through it too, so every trainer shows up on /metrics
// the same way.
func ObserveEpoch(loss float64, samples int, elapsed time.Duration) {
	trainLoss.Set(loss)
	trainEpochs.Inc()
	epochDur.Observe(elapsed.Seconds())
	if s := elapsed.Seconds(); s > 0 {
		trainSamplesPerSec.Set(float64(samples) / s)
	}
}

// TrainConfig controls a minibatch training loop.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	// ClipNorm bounds the global gradient norm per step; 0 disables clipping.
	ClipNorm float64
	// Workers caps the data-parallel fan-out of each training step; 0 or
	// negative means GOMAXPROCS. The trained weights are bit-identical for
	// every value — shard boundaries and reduction order depend only on
	// the batch size (DESIGN.md §11) — so Workers is purely a throughput
	// knob.
	Workers int
	// Verbose, when non-nil, receives one line per log interval.
	Verbose func(epoch int, loss float64)
	// LogEvery controls the Verbose cadence; 0 defaults to every 100 epochs.
	LogEvery int
}

// EffectiveWorkers resolves the Workers knob: non-positive means
// GOMAXPROCS.
func (c TrainConfig) EffectiveWorkers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Train fits the network to reconstruct (or map) x → y with the given loss
// and optimizer, shuffling minibatches with rng each epoch. Gradient work
// is sharded across cfg.Workers goroutines with a fixed-order reduction,
// so the result is bit-identical for any worker count. It returns the mean
// training loss of the final epoch.
func Train(n *Network, x, y *mat.Matrix, loss Loss, opt Optimizer, cfg TrainConfig, rng *rand.Rand) (float64, error) {
	if x.Rows != y.Rows {
		return 0, fmt.Errorf("nn: %d inputs for %d targets", x.Rows, y.Rows)
	}
	if x.Rows == 0 {
		return 0, fmt.Errorf("nn: empty training set")
	}
	if cfg.Epochs <= 0 {
		return 0, fmt.Errorf("nn: epochs must be positive, got %d", cfg.Epochs)
	}
	bs := cfg.BatchSize
	if bs <= 0 || bs > x.Rows {
		bs = x.Rows
	}
	logEvery := cfg.LogEvery
	if logEvery <= 0 {
		logEvery = 100
	}
	idx := make([]int, x.Rows)
	for i := range idx {
		idx[i] = i
	}
	// All buffers live for the whole fit: the sharder owns per-worker
	// replicas, workspaces and per-shard gradient accumulators; the
	// minibatch buffers and per-worker shard views below are refilled in
	// place, so steady-state steps do not touch the allocator.
	sh := NewSharder(cfg.EffectiveWorkers(), bs, []*Network{n}, nil)
	xb, yb := &mat.Matrix{}, &mat.Matrix{}
	xv := make([]*mat.Matrix, sh.Workers())
	yv := make([]*mat.Matrix, sh.Workers())
	for w := range xv {
		xv[w], yv[w] = &mat.Matrix{}, &mat.Matrix{}
	}
	shardLoss := make([]float64, sh.MaxShards())
	rows := 0
	// One closure for the whole fit; per-step state threads through the
	// captured variables above.
	step := func(w, shard, lo, hi int, train, _ []*Network, ws *mat.Workspace) {
		xs := mat.RowsView(xv[w], xb, lo, hi)
		ys := mat.RowsView(yv[w], yb, lo, hi)
		pred := train[0].ForwardInto(xs, ws)
		l, grad := loss.ComputeInto(pred, ys, ws)
		// ComputeInto normalizes by the shard; rescale so the summed shard
		// gradients equal the full-batch mean gradient. The factor depends
		// only on the shard boundaries, never on the worker count.
		grad.Scale(float64(hi-lo) / float64(rows))
		train[0].BackwardParamsInto(grad, ws)
		shardLoss[shard] = l * float64(hi-lo)
	}
	params := n.Params()
	finalLoss := 0.0
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		//lint:ignore detorder observability-only: epoch wall-clock feeds the progress callback and metrics, never weights or scores
		epochStart := time.Now()
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		epochLoss := 0.0
		for start := 0; start < len(idx); start += bs {
			end := start + bs
			if end > len(idx) {
				end = len(idx)
			}
			batch := idx[start:end]
			x.SelectRowsInto(xb, batch)
			y.SelectRowsInto(yb, batch)
			rows = len(batch)
			shards := sh.Run(rows, step)
			sh.Reduce(shards)
			if cfg.ClipNorm > 0 {
				ClipGradients(params, cfg.ClipNorm)
			}
			opt.Step(params)
			// Summing shard losses in shard order keeps the epoch loss
			// deterministic too; each term is shard-weighted so the total
			// is the true per-sample sum regardless of a short tail shard.
			for s := 0; s < shards; s++ {
				epochLoss += shardLoss[s]
			}
		}
		finalLoss = epochLoss / float64(len(idx))
		ObserveEpoch(finalLoss, len(idx), time.Since(epochStart))
		if cfg.Verbose != nil && (epoch%logEvery == 0 || epoch == cfg.Epochs-1) {
			cfg.Verbose(epoch, finalLoss)
		}
	}
	return finalLoss, nil
}

package nn

import (
	"runtime"
	"time"

	"prodigy/internal/obs"
)

// Training telemetry: the loss trajectory, epoch wall time and
// data-parallel throughput of whatever model is currently fitting. Single
// gauges still suffice for loss and throughput because there is at most
// one in-flight fit per deployment operation worth watching; within that
// fit, gradient work fans out across the trainer's Workers goroutines
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

// EffectiveWorkers resolves a trainer's Workers knob, the cap on the
// data-parallel fan-out of each training step: non-positive means
// GOMAXPROCS. The trained weights are bit-identical for every value —
// shard boundaries and reduction order depend only on the batch size
// (DESIGN.md §11) — so Workers is purely a throughput knob.
func EffectiveWorkers(workers int) int {
	if workers > 0 {
		return workers
	}
	return runtime.GOMAXPROCS(0)
}

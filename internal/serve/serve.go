// Package serve is the production serving tier between the HTTP API and
// the detection pipeline (ROADMAP item 2, the millions-of-users story):
//
//   - A request coalescer micro-batches concurrent scoring requests into
//     the pipeline's parallel batch path: requests are flushed together
//     when the coalescing window elapses (latency bound) or the batch
//     fills (size bound), their live rows are staged into a buffer of
//     exactly that many rows from a pooled workspace, and each waiter gets
//     its subslice of the batch verdicts back. Scores are bit-identical to
//     per-request scoring — batching changes the schedule, not the
//     arithmetic.
//
//   - A sharded replica tier stamps N core.Prodigy replicas out of one
//     trained artifact and consistent-hashes work across them, so
//     CPU-bound scoring scales across cores without sharing a model
//     snapshot pointer between flushers. Swap rolls a retrained artifact
//     replica by replica — in-flight batches finish on the old snapshot,
//     and per-replica generation numbers expose convergence.
//
//   - Graceful degradation: each shard has a bounded admission queue
//     measured in rows; requests beyond it are shed immediately
//     (ErrOverloaded), and requests that waited past their deadline are
//     shed at the flush boundary instead of being scored late — the tier
//     sheds the request, not the tail latency.
package serve

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"prodigy/internal/core"
	"prodigy/internal/ensemble"
	"prodigy/internal/obs"
	"prodigy/internal/pipeline"
)

// Serving-tier telemetry (DESIGN.md §15). Queue depth and the shed
// counter are the overload surface the alert rules watch; the batch-rows
// histogram shows how much coalescing actually happens (all-1s means no
// concurrency, all-4096s means the size bound dominates the window).
var (
	queueDepth = obs.Default.NewGauge("serve_queue_depth",
		"Feature-vector rows admitted to the serving tier and not yet staged into a batch.")
	shedTotal = obs.Default.NewCounterVec("serve_shed_total",
		"Requests shed by the serving tier instead of scored.", "reason")
	requestsTotal = obs.Default.NewCounter("serve_requests_total",
		"Requests admitted to the serving tier.")
	batchRows = obs.Default.NewHistogram("serve_batch_rows",
		"Rows per coalesced batch at flush.", batchRowBuckets)
	flushTotal = obs.Default.NewCounterVec("serve_flush_total",
		"Coalesced batch flushes by what triggered them.", "trigger")
	coalesceWait = obs.Default.NewHistogram("serve_coalesce_wait_seconds",
		"Time a scored request spent queued and coalescing before its batch flushed.", obs.DefBuckets)
	replicaGen = obs.Default.NewGaugeVec("serve_replica_generation",
		"Model deployment generation per serving replica; divergence means a Swap is mid-roll.", "replica")
)

// batchRowBuckets covers 1 row (no coalescing) up to the default size
// bound in powers of two.
var batchRowBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}

// Shed reasons and flush triggers: constants, so the metric label sets
// stay bounded.
const (
	shedQueueFull = "queue_full"
	shedDeadline  = "deadline"
	shedStopped   = "stopped"

	flushWindow = "window"
	flushSize   = "size"
	flushDrain  = "drain"
)

// maxReplicas bounds the replica count (and with it the replica metric
// label set) regardless of configuration.
const maxReplicas = 64

// replicaLabel maps a replica index to its metric label value.
//
//lint:labelsafe replica indices are clamped to [0, maxReplicas) at tier construction
func replicaLabel(i int) string { return strconv.Itoa(i) }

// Errors the tier answers requests with. Both shed variants map to HTTP
// 429 + Retry-After at the API layer.
var (
	// ErrOverloaded is returned for requests shed under overload: the
	// admission queue was full, or the request waited past its deadline.
	ErrOverloaded = errors.New("serve: request shed under overload")
	// ErrStopped is returned for requests arriving after Stop.
	ErrStopped = errors.New("serve: serving tier stopped")
	// ErrBatchTooLarge is returned for a single request carrying more rows
	// than one coalesced batch can hold; callers should split it.
	ErrBatchTooLarge = errors.New("serve: request exceeds the batch size bound")
	// ErrUntrained is returned while no trained model is deployed.
	ErrUntrained = errors.New("serve: no trained model deployed")
)

// Config tunes the serving tier. Zero values fall back to the defaults
// noted per field (DefaultConfig spells them out).
type Config struct {
	// Replicas is the number of detector replicas (shards); clamped to
	// [1, 64]. Default 1.
	Replicas int
	// Window is the coalescing latency bound: the longest a request waits
	// for co-batched company before its batch flushes. Default 2ms.
	Window time.Duration
	// MaxBatch is the size bound in rows per coalesced batch; a full batch
	// flushes immediately. It bounds rows only and reserves no memory: a
	// flush stages just the rows it scores. Default 4096.
	MaxBatch int
	// MaxQueue bounds each shard's admission queue in rows; requests
	// beyond it are shed with ErrOverloaded. Default 4×MaxBatch.
	MaxQueue int
	// Deadline is the per-request time budget (admission to flush); a
	// request still waiting past it is shed, not scored. An earlier
	// context deadline tightens it per request. Default 100ms.
	Deadline time.Duration
	// Clock abstracts time for tests; nil uses the real clock.
	Clock Clock
}

// DefaultConfig returns the serving defaults: one replica, a 2ms window,
// 4096-row batches, a 16384-row admission queue and a 100ms deadline.
func DefaultConfig() Config {
	return Config{Replicas: 1, Window: 2 * time.Millisecond, MaxBatch: 4096, Deadline: 100 * time.Millisecond}
}

// withDefaults fills zero fields and clamps bounds.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Replicas <= 0 {
		c.Replicas = d.Replicas
	}
	if c.Replicas > maxReplicas {
		c.Replicas = maxReplicas
	}
	if c.Window <= 0 {
		c.Window = d.Window
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = d.MaxBatch
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxBatch
	}
	if c.Deadline <= 0 {
		c.Deadline = d.Deadline
	}
	if c.Clock == nil {
		c.Clock = realClock{}
	}
	return c
}

// Result is one request's demuxed share of a coalesced batch. Scores and
// Preds are subslices of the batch's output (the detector allocates fresh
// output per batch, so sharing is safe): demux is a reslice, not a copy.
type Result struct {
	Scores []float64
	// Preds holds 1 for anomalous, 0 for healthy, per row.
	Preds []int
	// Threshold the verdicts were judged against, read from the same model
	// snapshot that scored the batch.
	Threshold float64
	// Generation of the replica's deployed model at flush time.
	Generation uint64
	// BatchRows is how many rows the coalesced batch carried in total —
	// the amortization this request enjoyed.
	BatchRows int
	// Waited is how long the request spent between admission and flush.
	Waited time.Duration
}

// Tier is the coalescing, sharded serving tier over N detector replicas.
// All methods are safe for concurrent use.
type Tier struct {
	cfg    Config
	shards []*shard
	// rr distributes keyless requests round-robin across shards.
	rr       atomic.Uint64
	wg       sync.WaitGroup
	stopOnce sync.Once
}

// NewTier builds the tier over p and starts one flusher goroutine per
// replica. Replica 0 is p itself; the rest are stamped from p's deployed
// artifact (snapshot replication) and share its CoMTE distractor pool. If
// p is untrained, or a replica fails to build, the tier degrades to the
// replicas it has — scoring through an untrained tier sheds with
// ErrUntrained. Stop the tier to release its goroutines.
func NewTier(p *core.Prodigy, cfg Config) *Tier {
	cfg = cfg.withDefaults()
	t := &Tier{cfg: cfg}
	replicas := []*core.Prodigy{p}
	if p.Trained() {
		artifact := p.Artifact()
		pool := p.ExplainPool()
		for i := 1; i < cfg.Replicas; i++ {
			rep, err := core.FromArtifact(artifact, p.Cfg)
			if err != nil {
				obs.Warn("serve: replica build failed, serving with fewer",
					"want", cfg.Replicas, "have", len(replicas), "err", err)
				break
			}
			if pool != nil {
				rep.SetExplainPool(pool)
			}
			replicas = append(replicas, rep)
		}
	}
	for i, rep := range replicas {
		sh := &shard{
			tier:    t,
			id:      i,
			replica: rep,
			reqC:    make(chan *request, cfg.MaxQueue),
		}
		t.shards = append(t.shards, sh)
		replicaGen.With(replicaLabel(i)).Set(float64(rep.Generation()))
		t.wg.Add(1)
		go func(sh *shard) {
			defer t.wg.Done()
			sh.run()
		}(sh)
	}
	return t
}

// Replicas returns how many detector replicas the tier serves with.
func (t *Tier) Replicas() int { return len(t.shards) }

// shardFor consistent-hashes a key to a shard.
func (t *Tier) shardFor(key uint64) *shard {
	return t.shards[jumpHash(key, len(t.shards))]
}

// ScoreBatch coalesces the vectors into the next batch of a round-robin
// shard and returns their demuxed verdicts. It blocks until the batch
// flushes (at most the window plus scoring time) unless the request is
// shed or ctx ends first.
func (t *Tier) ScoreBatch(ctx context.Context, vectors [][]float64) (*Result, error) {
	return t.shards[int(t.rr.Add(1))%len(t.shards)].submit(ctx, vectors)
}

// ReplicaForJob returns the replica that job-affine analyses (dashboard,
// explanation, diagnosis) of the job should run against — the consistent
// hash of KeyForJob, so one job's reads land on one replica.
func (t *Tier) ReplicaForJob(jobID int64) *core.Prodigy {
	return t.shardFor(KeyForJob(jobID)).replica
}

// Swap rolls a retrained artifact across the replicas one at a time —
// generation-numbered snapshot replication without a stop-the-world:
// each replica's swap is a single atomic pointer install, in-flight
// batches finish against the snapshot they loaded, and until the roll
// completes Generations reports the divergence.
func (t *Tier) Swap(artifact *pipeline.Artifact) error {
	for i, sh := range t.shards {
		if err := sh.replica.Swap(artifact); err != nil {
			return fmt.Errorf("serve: swap stalled at replica %d of %d: %w", i, len(t.shards), err)
		}
		replicaGen.With(replicaLabel(i)).Set(float64(sh.replica.Generation()))
	}
	return nil
}

// Generations returns each replica's model deployment generation.
func (t *Tier) Generations() []uint64 {
	out := make([]uint64, len(t.shards))
	for i, sh := range t.shards {
		out[i] = sh.replica.Generation()
	}
	return out
}

// Converged reports whether every replica serves the same model
// generation (no Swap mid-roll).
func (t *Tier) Converged() bool {
	gens := t.Generations()
	for _, g := range gens[1:] {
		if g != gens[0] {
			return false
		}
	}
	return true
}

// QueuedRows returns the rows currently admitted and waiting across all
// shards.
func (t *Tier) QueuedRows() int {
	total := int64(0)
	for _, sh := range t.shards {
		total += sh.queued.Load()
	}
	return int(total)
}

// QueueCapacity returns the total admission-queue capacity in rows
// across all shards — the denominator for queue-pressure fractions
// (the ensemble budget scheduler's load probe pairs it with
// QueuedRows).
func (t *Tier) QueueCapacity() int { return t.cfg.MaxQueue * len(t.shards) }

// ConfigureEnsemble wires the tier's queue-depth signal and the given
// ns/row budget into every deployed cascade ensemble it serves: the
// budget scheduler then sheds fleet members when measured cost blows
// the budget or the admission queue backs past its high-water mark.
// Replicas stamped from one artifact share one live ensemble, so each
// distinct ensemble is configured once. No-op for non-ensemble models;
// returns how many ensembles were configured. Call again after Swap —
// a retrained artifact carries a fresh ensemble.
func (t *Tier) ConfigureEnsemble(budgetNs float64) int {
	seen := make(map[*ensemble.Ensemble]bool)
	for _, sh := range t.shards {
		if !sh.replica.Trained() {
			continue
		}
		ens, ok := ensemble.Of(sh.replica.Artifact())
		if !ok || seen[ens] {
			continue
		}
		seen[ens] = true
		ens.SetBudgetNs(budgetNs)
		ens.SetLoadProbe(func() (queued, capacity int) {
			return t.QueuedRows(), t.QueueCapacity()
		})
	}
	return len(seen)
}

// Stop drains the tier: new submissions are shed with ErrStopped, queued
// requests are flushed and answered, and the flusher goroutines are
// joined. Idempotent.
func (t *Tier) Stop() {
	t.stopOnce.Do(func() {
		for _, sh := range t.shards {
			sh.close()
		}
		t.wg.Wait()
	})
}

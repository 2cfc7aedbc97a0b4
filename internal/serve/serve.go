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
//   - Shards over one model: the tier runs N shards, each an admission
//     queue and a flusher, and deals requests round-robin across them, so
//     small batches score on several cores at once. Every shard scores
//     with the one deployed model through the snapshot the tier pinned
//     when it was built — one set of weights, one scaler and one live
//     score sketch, so the score-shift alert sees every scored row. A
//     tier serves the snapshot it was built with; a retrained model is
//     deployed by building a new tier.
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
	"sync"
	"sync/atomic"
	"time"

	"prodigy/internal/core"
	"prodigy/internal/ensemble"
	"prodigy/internal/mat"
	"prodigy/internal/obs"
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

// maxShards bounds the shard count regardless of configuration.
const maxShards = 64

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
	// Replicas is the number of shards — admission queues with their own
	// flusher — over the one deployed model; clamped to [1, 64]. Default 1.
	// The name predates the shards sharing one model; perfbench and
	// prodigyd's -replicas flag set it.
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

// DefaultConfig returns the serving defaults: one shard, a 2ms window,
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
	if c.Replicas > maxShards {
		c.Replicas = maxShards
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
	// BatchRows is how many rows the coalesced batch carried in total —
	// the amortization this request enjoyed.
	BatchRows int
	// Waited is how long the request spent between admission and flush.
	Waited time.Duration
}

// Tier is the coalescing serving tier: Replicas shards, each an
// admission queue and a flusher, over one deployed model. All methods are
// safe for concurrent use.
type Tier struct {
	cfg Config
	// p is the deployed model the tier serves.
	p *core.Prodigy
	// snap is p's model snapshot when the tier was built (nil if p was
	// untrained then): every batch of every shard is selected under it
	// and scored with it.
	snap   *core.Snapshot
	shards []*shard
	// rr distributes requests round-robin across shards.
	rr       atomic.Uint64
	wg       sync.WaitGroup
	stopOnce sync.Once
}

// NewTier builds the tier over p and starts one flusher goroutine per
// shard. It pins p's model snapshot here, and every shard scores with it
// for the tier's lifetime, whatever p deploys later: a tier serves the
// snapshot it was built with. Scoring through a tier built over an
// untrained p sheds with ErrUntrained. Stop the tier to release its
// goroutines.
func NewTier(p *core.Prodigy, cfg Config) *Tier {
	cfg = cfg.withDefaults()
	t := &Tier{cfg: cfg, p: p, snap: p.Snapshot()}
	for i := 0; i < cfg.Replicas; i++ {
		sh := &shard{tier: t, reqC: make(chan *request, cfg.MaxQueue)}
		t.shards = append(t.shards, sh)
		t.wg.Add(1)
		go func(sh *shard) {
			defer t.wg.Done()
			sh.run()
		}(sh)
	}
	return t
}

// Replicas returns how many shards the tier serves with.
func (t *Tier) Replicas() int { return len(t.shards) }

// Route is one request's routing decision: the shard it queues on. A
// caller decodes or selects the request's rows under Snapshot's column
// map, then submits them with Submit; the shard scores every batch with
// that snapshot.
type Route struct {
	sh *shard
}

// Route picks the next round-robin shard.
func (t *Tier) Route() Route {
	return Route{sh: t.shards[int(t.rr.Add(1))%len(t.shards)]}
}

// Snapshot is the model snapshot the tier scores with — the one the rows
// must be selected under — or nil when the model was untrained at tier
// construction (or for the zero Route).
func (r Route) Snapshot() *core.Snapshot {
	if r.sh == nil {
		return nil
	}
	return r.sh.tier.snap
}

// Submit coalesces x — rows holding the selected columns of the route's
// snapshot, in selection order — into the shard's next batch and
// returns their demuxed verdicts. It blocks until the batch flushes (at
// most the window plus scoring time) unless the request is shed or ctx
// ends first.
func (r Route) Submit(ctx context.Context, x *mat.Matrix) (*Result, error) {
	return r.sh.submit(ctx, x, nil)
}

// ScoreBatch scores full-width vectors: it checks each vector's width
// against the tier's snapshot, then submits them through a round-robin
// shard to be selected into the model's columns once admitted.
func (t *Tier) ScoreBatch(ctx context.Context, vectors [][]float64) (*Result, error) {
	if t.snap == nil {
		return nil, ErrUntrained
	}
	width := t.snap.Width()
	for i, v := range vectors {
		if len(v) != width {
			return nil, fmt.Errorf("serve: vector %d has %d features, model expects %d", i, len(v), width)
		}
	}
	return t.Route().sh.submit(ctx, nil, vectors)
}

// ReplicaForJob returns the model job analyses (dashboard, explanation,
// diagnosis) run on: the tier's one deployed model, whatever the job.
// perfbench's analysis replay reads the model through it.
func (t *Tier) ReplicaForJob(int64) *core.Prodigy { return t.p }

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
// ns/row budget into the cascade ensemble the tier serves, if it serves
// one: the budget scheduler then sheds fleet members when measured cost
// blows the budget or the admission queue backs past its high-water
// mark. Returns how many ensembles were configured: 1, or 0 for an
// untrained tier or a non-ensemble model.
func (t *Tier) ConfigureEnsemble(budgetNs float64) int {
	if t.snap == nil {
		return 0
	}
	ens, ok := ensemble.Of(t.p.Artifact())
	if !ok {
		return 0
	}
	ens.SetBudgetNs(budgetNs)
	ens.SetLoadProbe(func() (queued, capacity int) {
		return t.QueuedRows(), t.QueueCapacity()
	})
	return 1
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

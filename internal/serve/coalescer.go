package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"time"

	"prodigy/internal/mat"
)

// request is one waiter's stake in a coalesced batch.
type request struct {
	// x holds the request's rows at the selected width of the tier's
	// snapshot.
	x *mat.Matrix
	// deadline is the admission deadline: a request still unflushed past
	// it is shed.
	deadline time.Time
	enqueued time.Time
	// off is the request's first row within the flushed batch.
	off  int
	done chan outcome
}

type outcome struct {
	res *Result
	err error
}

// shard is one coalescer over the tier's model: an admission queue
// bounded in rows, and a flusher goroutine that drains it into size- or
// window-bounded batches scored with the tier's snapshot.
type shard struct {
	tier *Tier
	reqC chan *request
	// queued counts rows admitted but not yet staged into a batch; it is
	// the admission bound and backs the serve_queue_depth gauge.
	queued atomic.Int64
	// staged counts rows ever moved from the queue into a batch (a test
	// synchronization hook).
	staged atomic.Int64
	// mu guards stopped and orders submissions against close(reqC):
	// senders hold it shared, close holds it exclusive, so no send can
	// race the close.
	mu      sync.RWMutex
	stopped bool
	// batch is flusher-owned scratch, reused across flushes.
	batch []*request
}

// submit admits one request into the shard's next batch and blocks
// until the batch flushes, the request is shed, or ctx ends. The rows
// come either as x, already selected under the tier's snapshot, or as
// full-width vectors, which are selected only once admitted, so a
// request shed for a full queue costs no copy. The row reservation
// against MaxQueue happens before the channel send, and the channel's
// capacity equals MaxQueue rows, so an admitted send never blocks —
// which is what makes close(reqC) under the exclusive lock a safe
// shutdown signal.
func (s *shard) submit(ctx context.Context, x *mat.Matrix, vectors [][]float64) (*Result, error) {
	cfg := &s.tier.cfg
	rows := len(vectors)
	if x != nil {
		rows = x.Rows
	}
	if rows == 0 {
		return nil, fmt.Errorf("serve: empty request")
	}
	if rows > cfg.MaxBatch {
		return nil, ErrBatchTooLarge
	}
	snap := s.tier.snap
	if snap == nil {
		return nil, ErrUntrained
	}
	_, k := snap.Columns()
	if x != nil && x.Cols != k {
		return nil, fmt.Errorf("serve: rows have %d selected features, model selects %d", x.Cols, k)
	}
	now := cfg.Clock.Now()
	deadline := now.Add(cfg.Deadline)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}

	s.mu.RLock()
	if s.stopped {
		s.mu.RUnlock()
		shedTotal.With(shedStopped).Inc()
		return nil, ErrStopped
	}
	if q := s.queued.Add(int64(rows)); q > int64(cfg.MaxQueue) {
		s.queued.Add(int64(-rows))
		s.mu.RUnlock()
		shedTotal.With(shedQueueFull).Inc()
		return nil, ErrOverloaded
	}
	if x == nil {
		x = mat.New(rows, k)
		for i, v := range vectors {
			snap.SelectRow(x.Row(i), v)
		}
	}
	req := &request{x: x, deadline: deadline, enqueued: now, done: make(chan outcome, 1)}
	queueDepth.Add(float64(rows))
	s.reqC <- req
	s.mu.RUnlock()
	requestsTotal.Inc()

	select {
	case out := <-req.done:
		return out.res, out.err
	case <-ctx.Done():
		// The request is already in the pipeline; the flusher still scores
		// or sheds it and parks the outcome in the buffered done channel.
		return nil, ctx.Err()
	}
}

// close marks the shard stopped and closes the admission channel; the
// flusher drains what was admitted and exits.
func (s *shard) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return
	}
	s.stopped = true
	close(s.reqC)
}

// run is the shard's flusher: each admitted request either opens a new
// batch or joins the one being collected. The spawner in NewTier owns the
// WaitGroup join.
func (s *shard) run() {
	for {
		first, ok := <-s.reqC
		if !ok {
			return
		}
		// A request that overflows the open batch (size bound) carries
		// over to open the next one.
		for first != nil {
			first = s.batchOnce(first)
		}
	}
}

// batchOnce collects one batch starting from first and flushes it. The
// flush rules: the batch closes when the coalescing window elapses
// (latency bound), the staged rows reach MaxBatch (size bound), or the
// admission channel closes (drain). Every request of the tier was
// selected under its one snapshot, so a batch holds rows of one width
// and one selection. Returns the request that arrived but did not join,
// if any — it opens the next batch.
func (s *shard) batchOnce(first *request) (overflow *request) {
	cfg := &s.tier.cfg
	batch := s.batch[:0]
	rows := 0
	stage := func(r *request) {
		s.queued.Add(int64(-r.x.Rows))
		queueDepth.Add(float64(-r.x.Rows))
		s.staged.Add(int64(r.x.Rows))
		rows += r.x.Rows
		batch = append(batch, r)
	}
	stage(first)
	trigger := flushWindow
	timer := cfg.Clock.NewTimer(cfg.Window)
collect:
	for rows < cfg.MaxBatch {
		select {
		case r, ok := <-s.reqC:
			if !ok {
				trigger = flushDrain
				break collect
			}
			if rows+r.x.Rows > cfg.MaxBatch {
				overflow = r
				trigger = flushSize
				break collect
			}
			stage(r)
		case <-timer.C():
			break collect
		}
	}
	if rows >= cfg.MaxBatch {
		trigger = flushSize
	}
	timer.Stop()
	s.flush(batch, trigger)
	// Drop the flushed requests before keeping the grown capacity for the
	// next batch: a stale slot would pin its request's rows until a later
	// batch happened to overwrite it.
	clear(batch)
	s.batch = batch[:0]
	return overflow
}

// flush sheds the batch's expired requests, stages the live rows into a
// buffer of exactly that many rows, scores them in one call of the
// tier's snapshot, and demuxes per-request subslices of the output back
// to the waiters. Deadline-aware shedding happens here, at the flush
// boundary: a request that already waited past its deadline is answered
// ErrOverloaded instead of being scored late, so overload shows up as
// sheds, not as unbounded tail latency. The staging buffer comes from a
// workspace checked out of the package pool for this flush alone, so a
// flush's memory follows the rows it scores and a rare MaxBatch-sized
// batch does not hold its buffer for the tier's lifetime.
func (s *shard) flush(batch []*request, trigger string) {
	cfg := &s.tier.cfg
	now := cfg.Clock.Now()
	live, rows := 0, 0
	for _, r := range batch {
		if now.After(r.deadline) {
			shedTotal.With(shedDeadline).Inc()
			r.done <- outcome{err: ErrOverloaded}
			continue
		}
		r.off = rows
		rows += r.x.Rows
		batch[live] = r
		live++
	}
	if rows == 0 {
		return
	}
	snap := s.tier.snap
	_, width := snap.Columns()
	ws := mat.GetWorkspace()
	defer mat.Release(ws)
	staged := ws.Get(rows, width)
	for _, r := range batch[:live] {
		copy(staged.Data[r.off*width:], r.x.Data)
	}
	batchRows.Observe(float64(rows))
	flushTotal.With(trigger).Inc()
	preds, scores, threshold := snap.DetectSelected(staged)
	for _, r := range batch[:live] {
		waited := now.Sub(r.enqueued)
		coalesceWait.Observe(waited.Seconds())
		r.done <- outcome{res: &Result{
			Scores:    scores[r.off : r.off+r.x.Rows],
			Preds:     preds[r.off : r.off+r.x.Rows],
			Threshold: threshold,
			BatchRows: rows,
			Waited:    waited,
		}}
	}
}

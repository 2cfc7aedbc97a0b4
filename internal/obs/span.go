package obs

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Span tracing: StartSpan/End record stage durations into the
// span_duration_seconds histogram, keyed by the span's dotted path
// (nested spans concatenate parent.child, so a stage's time is attributed
// to where it ran, not just what it was). Spans slower than the slow
// threshold additionally land in a fixed ring buffer for post-hoc
// inspection via /debug/vars — the poor operator's trace store.

var spanDurations = Default.NewHistogramVec("span_duration_seconds",
	"Duration of traced pipeline stages, by dotted span path.", DefBuckets, "span")

type spanCtxKey struct{}

// Span is one in-flight traced stage.
type Span struct {
	name  string
	start time.Time
	done  atomic.Bool
}

// StartSpan begins a traced stage. If ctx already carries a span, the new
// span's path is parent.child — nested stages attribute their durations to
// distinct histograms. The returned context carries the new span; pass it
// to callees that trace their own stages.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if parent, ok := ctx.Value(spanCtxKey{}).(*Span); ok && parent != nil {
		name = parent.name + "." + name
	}
	s := &Span{name: name, start: time.Now()}
	return context.WithValue(ctx, spanCtxKey{}, s), s
}

// End records the span's duration. Safe to call more than once; only the
// first call records. Returns the measured duration.
func (s *Span) End() time.Duration {
	d := time.Since(s.start)
	if !s.done.CompareAndSwap(false, true) {
		return d
	}
	spanDurations.With(s.name).Observe(d.Seconds())
	recordSlowSpan(s.name, s.start, d)
	return d
}

// SlowSpan is one entry of the recent-slow-spans ring.
type SlowSpan struct {
	Name     string        `json:"name"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
}

const slowRingSize = 128

var (
	slowThresholdNs atomic.Int64 // spans at or above this land in the ring
	slowMu          sync.Mutex
	slowRing        [slowRingSize]SlowSpan
	slowNext        int
	slowCount       int
)

func init() { slowThresholdNs.Store(int64(100 * time.Millisecond)) }

// SetSlowSpanThreshold sets the duration at which a span is retained in
// the slow-span ring (default 100ms). Zero retains every span; negative
// disables retention.
//
//lint:ignore deadcode test seam: TestSlowSpanRing and server TestSpansEndpoint retain every span
func SetSlowSpanThreshold(d time.Duration) { slowThresholdNs.Store(int64(d)) }

func recordSlowSpan(name string, start time.Time, d time.Duration) {
	th := slowThresholdNs.Load()
	if th < 0 || int64(d) < th {
		return
	}
	slowMu.Lock()
	slowRing[slowNext] = SlowSpan{Name: name, Start: start, Duration: d}
	slowNext = (slowNext + 1) % slowRingSize
	if slowCount < slowRingSize {
		slowCount++
	}
	slowMu.Unlock()
}

// RecentSlowSpans returns the retained slow spans, newest first.
func RecentSlowSpans() []SlowSpan {
	slowMu.Lock()
	defer slowMu.Unlock()
	out := make([]SlowSpan, 0, slowCount)
	for i := 0; i < slowCount; i++ {
		idx := (slowNext - 1 - i + slowRingSize) % slowRingSize
		out = append(out, slowRing[idx])
	}
	return out
}

package obs

import (
	"context"
	"testing"
	"time"
)

// TestNestedSpansAttribution proves nested spans record into distinct
// histograms keyed by their dotted path: the parent's duration lands in
// span_duration_seconds{span="outer"}, the child's in {span="outer.inner"},
// and neither pollutes the other.
func TestNestedSpansAttribution(t *testing.T) {
	outerBefore := spanDurations.With("test_outer").Count()
	innerBefore := spanDurations.With("test_outer.test_inner").Count()
	bareInnerBefore := spanDurations.With("test_inner").Count()

	ctx, outer := StartSpan(context.Background(), "test_outer")
	childCtx, inner := StartSpan(ctx, "test_inner")
	time.Sleep(2 * time.Millisecond)
	if got := inner.End(); got < 2*time.Millisecond {
		t.Fatalf("inner duration %v too short", got)
	}
	// A grandchild started from the child's context nests twice.
	_, grand := StartSpan(childCtx, "leaf")
	grand.End()
	outerDur := outer.End()

	if d := spanDurations.With("test_outer").Count() - outerBefore; d != 1 {
		t.Fatalf("outer histogram count delta = %d, want 1", d)
	}
	if d := spanDurations.With("test_outer.test_inner").Count() - innerBefore; d != 1 {
		t.Fatalf("nested histogram count delta = %d, want 1", d)
	}
	if d := spanDurations.With("test_inner").Count() - bareInnerBefore; d != 0 {
		t.Fatalf("bare inner name must not be touched by a nested span (delta %d)", d)
	}
	if grand.name != "test_outer.test_inner.leaf" {
		t.Fatalf("grandchild path = %q", grand.name)
	}
	// The outer span covers the inner's sleep.
	if outerDur < 2*time.Millisecond {
		t.Fatalf("outer duration %v should include nested work", outerDur)
	}
	// Sum attributed to the nested histogram reflects the sleep.
	if s := spanDurations.With("test_outer.test_inner").Sum(); s < 0.002 {
		t.Fatalf("nested histogram sum %v, want >= 2ms", s)
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	before := spanDurations.With("test_idem").Count()
	_, s := StartSpan(context.Background(), "test_idem")
	s.End()
	s.End()
	if d := spanDurations.With("test_idem").Count() - before; d != 1 {
		t.Fatalf("double End recorded %d times, want 1", d)
	}
}

func TestSlowSpanRing(t *testing.T) {
	SetSlowSpanThreshold(0) // retain everything
	defer SetSlowSpanThreshold(100 * time.Millisecond)

	for i := 0; i < 3; i++ {
		_, s := StartSpan(context.Background(), "test_slow")
		s.End()
	}
	spans := RecentSlowSpans()
	if len(spans) < 3 {
		t.Fatalf("ring holds %d spans, want >= 3", len(spans))
	}
	// Newest first.
	if spans[0].Start.Before(spans[1].Start) {
		t.Fatalf("ring not newest-first: %v then %v", spans[0].Start, spans[1].Start)
	}
	found := 0
	for _, sp := range spans {
		if sp.Name == "test_slow" {
			found++
		}
	}
	if found < 3 {
		t.Fatalf("found %d test_slow spans, want 3", found)
	}
}

package obs

import (
	"strings"
	"testing"
	"time"
)

// TestTokenBucketRefill drives the bucket with a stubbed clock: burst
// drains, refill restores tokens at the configured rate, capacity clamps.
func TestTokenBucketRefill(t *testing.T) {
	now := time.Unix(1000, 0)
	b := NewTokenBucket(2, 3) // 2 tokens/sec, burst 3
	b.now = func() time.Time { return now }
	b.last = now
	b.tokens = b.burst

	for i := 0; i < 3; i++ {
		if !b.Allow() {
			t.Fatalf("burst token %d denied", i)
		}
	}
	if b.Allow() {
		t.Fatal("bucket should be empty after burst")
	}
	now = now.Add(500 * time.Millisecond) // refills 1 token
	if !b.Allow() {
		t.Fatal("token after 500ms refill denied")
	}
	if b.Allow() {
		t.Fatal("second token should not exist yet")
	}
	now = now.Add(time.Hour) // refill far past capacity: clamps to burst
	for i := 0; i < 3; i++ {
		if !b.Allow() {
			t.Fatalf("post-clamp token %d denied", i)
		}
	}
	if b.Allow() {
		t.Fatal("clamp exceeded burst capacity")
	}
}

// TestLoggerRateLimit checks the sampler contract end to end: limited
// levels drop beyond the burst and count in log_dropped_total, Error
// lines always pass.
func TestLoggerRateLimit(t *testing.T) {
	var buf strings.Builder
	l := NewLogger(&buf, LevelDebug)
	l.now = func() time.Time { return time.Unix(0, 0) }
	l.SetRateLimit(0, 2) // 2-line burst, no refill

	before := logDropped.Value()
	for i := 0; i < 5; i++ {
		l.Debug("chatty", "i", i)
	}
	l.Error("outage", "cause", "disk")

	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 2 debug + 1 error:\n%s", len(lines), buf.String())
	}
	if !strings.Contains(lines[2], "level=error") {
		t.Fatalf("error line missing despite exhausted bucket:\n%s", buf.String())
	}
	if d := logDropped.Value() - before; d != 3 {
		t.Fatalf("log_dropped_total delta = %v, want 3", d)
	}
}

package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"sync/atomic"
	"testing"
	"time"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	if got := samplesFor(0.99); got != 1000 {
		t.Fatalf("p99 needs %d samples, want 1000", got)
	}
	if got := samplesFor(0.50); got != 20 {
		t.Fatalf("p50 needs %d samples, want 20", got)
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, ok := percentile(xs, 0.99)
	if !ok || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v ok=%v, want 990 with exactly 10 beyond", v, ok)
	}
	if _, ok := percentile(xs[:999], 0.99); ok {
		t.Fatal("p99 of 999 samples has only 9 beyond it and must be refused")
	}
	if v, _ := percentile(xs[:101], 0.5); v != 51 {
		t.Fatalf("median of 1..101 = %v, want 51", v)
	}
}

func TestTallyCountsEveryMissAsMissing(t *testing.T) {
	tl := tally{limit: 100 * time.Millisecond}
	tl.add(result{status: 200, match: true, latency: 10 * time.Millisecond})  // served
	tl.add(result{status: 429})                                               // shed
	tl.add(result{status: 200, match: false, latency: time.Millisecond})      // wrong answer
	tl.add(result{status: 200, match: true, latency: 101 * time.Millisecond}) // too late
	tl.add(result{status: 500})                                               // error
	tl.add(result{})                                                          // never sent
	if tl.attempted != 6 || tl.served != 1 || tl.failed() != 5 {
		t.Fatalf("attempted %d served %d failed %d, want 6/1/5", tl.attempted, tl.served, tl.failed())
	}
	if tl.shed != 1 || tl.mismatched != 1 || tl.late != 1 || tl.errored != 2 {
		t.Fatalf("shed %d mismatched %d late %d errored %d, want 1/1/1/2", tl.shed, tl.mismatched, tl.late, tl.errored)
	}
	if got := tl.servedFrac(); math.Abs(got-1.0/6) > 1e-12 {
		t.Fatalf("served_frac %v, want 1/6", got)
	}
	if len(tl.latencies) != 3 {
		t.Fatalf("%d latencies kept, want the 3 answered 200s", len(tl.latencies))
	}
}

func TestDueTimesOfferExactCount(t *testing.T) {
	unit := poissonOffsets(rand.New(rand.NewSource(1)), 5000)
	start := time.Unix(0, 0)
	for _, rate := range []float64{10, 60.8, 291.7} {
		dues := dueTimes(start, unit, rate, 10*time.Second)
		if want := int(math.Round(rate * 10)); len(dues) != want {
			t.Fatalf("rate %v: %d arrivals, want %d", rate, len(dues), want)
		}
		for i, d := range dues {
			if d.Before(start) || !d.Before(start.Add(10*time.Second)) || (i > 0 && d.Before(dues[i-1])) {
				t.Fatalf("rate %v: arrival %d at %v is outside the window or out of order", rate, i, d.Sub(start))
			}
		}
	}
	// Same seed, same schedule.
	again := poissonOffsets(rand.New(rand.NewSource(1)), 5000)
	for i := range unit {
		if unit[i] != again[i] {
			t.Fatal("arrival schedule is not reproducible from the seed")
		}
	}
}

// TestOpenLoopTimesFromDue checks that a request is timed from when it was
// due, not from when the generator sent it, and that generator lateness is
// reported: every request here is due 30 ms before the loop starts.
func TestOpenLoopTimesFromDue(t *testing.T) {
	past := time.Now().Add(-30 * time.Millisecond)
	dues := []time.Time{past, past, past}
	results, late := openLoop(dues, 10, func(i int) (int, bool) { return 200, true })
	if len(late) != 3 {
		t.Fatalf("%d lateness samples, want 3", len(late))
	}
	for i, r := range results {
		if r.item != i || r.status != 200 || !r.match {
			t.Fatalf("result %d = %+v", i, r)
		}
		if r.latency < 30*time.Millisecond {
			t.Fatalf("latency %v measured from the send, want ≥ 30ms from the due time", r.latency)
		}
		if late[i] < 30*time.Millisecond {
			t.Fatalf("lateness %v, want ≥ 30ms", late[i])
		}
	}
}

// TestOpenLoopDoesNotWaitForAnswers checks the loop is open: a slow answer
// does not delay the next send.
func TestOpenLoopDoesNotWaitForAnswers(t *testing.T) {
	start := time.Now().Add(5 * time.Millisecond)
	dues := []time.Time{start, start.Add(10 * time.Millisecond), start.Add(20 * time.Millisecond)}
	release := make(chan struct{})
	var sent atomic.Int32
	go func() {
		for sent.Load() < 3 {
			time.Sleep(time.Millisecond)
		}
		close(release)
	}()
	results, late := openLoop(dues, 10, func(i int) (int, bool) {
		sent.Add(1)
		<-release // no request answers until all three were sent
		return 200, true
	})
	// A closed loop would never finish here: the first answer waits for
	// the third send.
	for i, l := range late {
		if l > 50*time.Millisecond {
			t.Fatalf("request %d sent %v late behind unanswered requests", i, l)
		}
	}
	if results[0].latency < results[2].latency {
		t.Fatal("the first request waited longest, so its latency must be the largest")
	}
}

func TestOpenLoopShedsPastInFlightCap(t *testing.T) {
	start := time.Now()
	dues := []time.Time{start, start, start, start, start}
	release := make(chan struct{})
	var sent atomic.Int32
	go func() {
		for sent.Load() < 2 {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(5 * time.Millisecond)
		close(release)
	}()
	results, _ := openLoop(dues, 2, func(i int) (int, bool) {
		sent.Add(1)
		<-release
		return 200, true
	})
	tl := tally{limit: time.Hour}
	for _, r := range results {
		tl.add(r)
	}
	if tl.attempted != 5 || tl.served != 2 || tl.errored != 3 {
		t.Fatalf("attempted %d served %d errored %d, want 5/2/3: unsent requests count as missing", tl.attempted, tl.served, tl.errored)
	}
}

func TestBlockStatsTakesMediansOverWholeBlocks(t *testing.T) {
	ok := func(ms int) result {
		return result{status: 200, match: true, latency: time.Duration(ms) * time.Millisecond}
	}
	tl := &tally{limit: time.Second}
	// Blocks of two completions: 1s, 2s (slow host), 1s, 1s, then a block
	// that ends past the 6s window and is left out.
	results := []result{ok(10), ok(10), ok(40), ok(40), ok(10), ok(12), ok(10), ok(14), ok(10), ok(10)}
	s := time.Second
	offsets := []time.Duration{s / 2, s, 2 * s, 3 * s, 3 * s, 4 * s, 4 * s, 5 * s, 6 * s, 7 * s}
	rate, p50, blocks := blockStats(tl, results, offsets, 2, 6*s, rawSpeed)
	if blocks != 4 {
		t.Fatalf("%d blocks, want the 4 that end within the window", blocks)
	}
	if rate != 2 {
		t.Fatalf("rate %v, want the median block rate 2/s: the slow block must not move it", rate)
	}
	if p50 != 11.5 {
		t.Fatalf("p50 %v ms, want the median of block medians 10, 40, 11, 12 = 11.5", p50)
	}
	// Shed, mismatched and late answers are not served.
	bad := []result{{status: 429}, {status: 200, latency: time.Millisecond}, {status: 200, match: true, latency: 2 * s}, ok(1)}
	if rate, _, _ := blockStats(tl, bad, []time.Duration{s, s, s, 2 * s}, 4, 2*s, rawSpeed); rate != 0.5 {
		t.Fatalf("rate %v, want 1 served in 2s = 0.5/s", rate)
	}
}

func TestBlockStatsScalesToReferenceHost(t *testing.T) {
	ok := result{status: 200, match: true, latency: 10 * time.Millisecond}
	tl := &tally{limit: time.Second}
	s := time.Second
	// Four blocks of two completions. The host runs twice as slow over
	// the first three (slowness 2), so their raw rates are half and their
	// latencies double the last block's; scaled, all four read alike.
	results := []result{ok, ok, ok, ok, ok, ok, {status: 200, match: true, latency: 5 * time.Millisecond}, {status: 200, match: true, latency: 5 * time.Millisecond}}
	offsets := []time.Duration{s, 2 * s, 3 * s, 4 * s, 5 * s, 6 * s, 6*s + s/2, 7 * s}
	slow := func(from, to time.Duration) float64 {
		if from >= 6*s {
			return 1
		}
		return 2
	}
	rate, p50, blocks := blockStats(tl, results, offsets, 2, 7*s, slow)
	if blocks != 4 || rate != 2 || p50 != 5 {
		t.Fatalf("%d blocks, rate %v, p50 %v ms; want 4 blocks at 2/s and 5 ms once scaled", blocks, rate, p50)
	}
	if rate, p50, _ := blockStats(tl, results, offsets, 2, 7*s, rawSpeed); rate != 1 || p50 != 10 {
		t.Fatalf("raw rate %v, p50 %v ms; want the slow blocks' 1/s and 10 ms", rate, p50)
	}
}

func TestHostSpeedSlownessOverStretch(t *testing.T) {
	t0 := time.Unix(1000, 0)
	ref := float64(refProbe)
	h := hostSpeed{{t0, ref}, {t0.Add(time.Second), 2 * ref}, {t0.Add(2 * time.Second), 2 * ref}, {t0.Add(3 * time.Second), ref}}
	if k, want := h.slowness(t0.Add(time.Second), t0.Add(2*time.Second)), math.Pow(2, hostElasticity); k != want {
		t.Fatalf("slowness %v over the slow stretch, want the unit's 2× raised to the elasticity, %v", k, want)
	}
	if k, want := h.slowness(t0.Add(10*time.Second), t0.Add(11*time.Second)), math.Pow(1.5, hostElasticity); k != want {
		t.Fatalf("slowness %v over a stretch with no sample, want that of the median of all, %v", k, want)
	}
	if u := h.unitNs(); u != 1.5*ref {
		t.Fatalf("median unit %v ns, want %v", u, 1.5*ref)
	}
	if k := (hostSpeed{}).overall(); k != 1 {
		t.Fatalf("slowness %v with no samples, want 1", k)
	}
	if k := h.since(t0)(3*time.Second, 4*time.Second); k != 1 {
		t.Fatalf("slowness %v over offsets 3s..4s, want 1", k)
	}
}

func TestHostProbeSamplesUntilHalted(t *testing.T) {
	p := startHostProbe()
	time.Sleep(3 * probeEvery)
	h := p.halt()
	if len(h) < 2 {
		t.Fatalf("%d samples in three probe periods", len(h))
	}
	for i, s := range h {
		if s.ns <= 0 || (i > 0 && s.at.Before(h[i-1].at)) {
			t.Fatalf("sample %d: %v ns at %v, want positive times in order", i, s.ns, s.at)
		}
	}
}

func TestClosedLoopCountsCompletionsInWindow(t *testing.T) {
	// Each caller waits for its answer: with 2 users and 5ms requests, the
	// callers walk the shared sequence as one prefix, each item once.
	results, offsets, elapsed := closedLoop(2, 50*time.Millisecond, 0, func(i int) result {
		time.Sleep(5 * time.Millisecond)
		return result{status: 200, match: true, latency: 5 * time.Millisecond}
	})
	if elapsed < 50*time.Millisecond {
		t.Fatalf("closed loop stopped after %v, before its window", elapsed)
	}
	seen := make([]bool, len(results))
	for _, r := range results {
		if r.item >= len(results) || seen[r.item] {
			t.Fatalf("item %d repeated or outside the prefix of %d", r.item, len(results))
		}
		seen[r.item] = true
	}
	// Two callers, 5ms each, 50ms: at most about 20 requests, since no
	// caller sends before its previous answer.
	if n := len(results); n < 2 || n > 24 {
		t.Fatalf("%d requests completed, want at most about 20", n)
	}
	for i := 1; i < len(offsets); i++ {
		if offsets[i] < offsets[i-1] {
			t.Fatal("completions are not in completion order")
		}
	}
}

func TestClosedLoopExtendsForTailSamples(t *testing.T) {
	slow := func(i int) result {
		time.Sleep(2 * time.Millisecond)
		return result{status: 200}
	}
	// 20ms window, 2ms requests: about 10 samples in the window, so
	// reaching 15 takes an extension.
	results, _, elapsed := closedLoop(1, 20*time.Millisecond, 15, slow)
	if len(results) < 15 || elapsed < 20*time.Millisecond {
		t.Fatalf("%d samples in %v, want the run extended to 15", len(results), elapsed)
	}
	// The extension stops at three windows however few samples it got.
	_, _, elapsed = closedLoop(1, 20*time.Millisecond, 1000000, slow)
	if elapsed > 200*time.Millisecond {
		t.Fatalf("run took %v, want it capped near 3 windows", elapsed)
	}
}

func TestF1(t *testing.T) {
	preds := []bool{true, true, false, false, true}
	truth := []bool{true, false, true, false, true}
	// tp 2, fp 1, fn 1: precision 2/3, recall 2/3.
	if got := f1(preds, truth); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("f1 %v, want 2/3", got)
	}
	if got := f1([]bool{false}, []bool{true}); got != 0 {
		t.Fatalf("f1 with no true positives = %v, want 0", got)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []span{
		{ID: 1, Request: 1, Name: "request", StartNs: 0, EndNs: 10 * ms},
		{ID: 2, Parent: 1, Request: 1, Name: "a", StartNs: 0, EndNs: 6 * ms},
		{ID: 3, Parent: 2, Request: 1, Name: "b", StartNs: 1 * ms, EndNs: 3 * ms, Derived: true},
		{ID: 4, Parent: 1, Request: 1, Name: "c", StartNs: 6 * ms, EndNs: 9 * ms},
	}
	self, root := selfTimes(spans)
	if root != 10*time.Millisecond {
		t.Fatalf("root total %v, want 10ms", root)
	}
	want := map[string]time.Duration{"request": time.Millisecond, "a": 4 * time.Millisecond, "b": 2 * time.Millisecond, "c": 3 * time.Millisecond}
	for k, v := range want {
		if self[k] != v {
			t.Fatalf("self[%s] = %v, want %v", k, self[k], v)
		}
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric lists the runs report in
// step with the repository's BENCHMARK.json.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []struct{ name, unit string }, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, BENCHMARK.json has %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Fatalf("%s %d: %s [%s], BENCHMARK.json has %s [%s]", what, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"prodigy/internal/dsos"
	"prodigy/internal/ldms"
	"prodigy/internal/obs"
)

// call sends one request through the handler in-process (no sockets) and
// compares the body with the reference answer byte for byte.
func call(h http.Handler, method, url string, body, ref []byte) (status int, match bool, got []byte) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, url, rd))
	got = rec.Body.Bytes()
	return rec.Code, rec.Code == http.StatusOK && bytes.Equal(got, ref), got
}

// encodeLikeServer encodes v the way the server's writeJSON does.
func encodeLikeServer(v interface{}) []byte {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		panic(err) // only plain maps, slices and numbers reach here
	}
	return buf.Bytes()
}

// writer ingests the live feed into the store on a fixed tick, one
// simulated second of every live node per tick. When the feed runs out it
// starts over under fresh job IDs, so every row lands on a new job.
type writer struct {
	store *dsos.Store
	feed  [][]ldms.Row
	tick  time.Duration

	stop chan struct{}
	done chan struct{}

	ingest []time.Duration // wall time per tick
	late   []time.Duration // how late each tick started
	rows   int
}

// jobIDStride separates the job IDs of successive passes over the feed.
const jobIDStride = 100000

func startWriter(store *dsos.Store, feed [][]ldms.Row, tick time.Duration) *writer {
	w := &writer{store: store, feed: feed, tick: tick, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		w.run()
	}()
	return w
}

func (w *writer) run() {
	start := time.Now()
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * w.tick)
		timer := time.NewTimer(time.Until(due))
		select {
		case <-w.stop:
			timer.Stop()
			return
		case <-timer.C:
		}
		t0 := time.Now()
		pass := int64(k / len(w.feed))
		for _, r := range w.feed[k%len(w.feed)] {
			r.JobID += pass * jobIDStride
			w.store.Ingest(r)
		}
		w.ingest = append(w.ingest, time.Since(t0))
		w.late = append(w.late, t0.Sub(due))
		w.rows += len(w.feed[k%len(w.feed)])
	}
}

// halt stops the writer and waits for it to exit.
func (w *writer) halt() {
	close(w.stop)
	<-w.done
}

// heapWatch samples the Go heap in use until halted and keeps the peak.
type heapWatch struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapWatch(every time.Duration) *heapWatch {
	h := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// halt stops sampling and returns the peak in MiB.
func (h *heapWatch) halt() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// runtimeStats is a point-in-time read of the collector's counters.
type runtimeStats struct {
	gcCycles  uint32
	pauseNs   uint64
	allocated uint64
}

func readRuntime() runtimeStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return runtimeStats{gcCycles: m.NumGC, pauseNs: m.PauseTotalNs, allocated: m.TotalAlloc}
}

// sub returns the counters' growth since before.
func (after runtimeStats) sub(before runtimeStats) runtimeStats {
	return runtimeStats{after.gcCycles - before.gcCycles, after.pauseNs - before.pauseNs, after.allocated - before.allocated}
}

// String describes the collector's activity over a phase.
func (d runtimeStats) String() string {
	return fmt.Sprintf("%d GC cycles, %.1f ms paused, %.0f MiB allocated", d.gcCycles, float64(d.pauseNs)/1e6, float64(d.allocated)/(1<<20))
}

// obsSnapshot is a flattened read of the program's obs registry:
// "name{label=value,...}" → value. Histogram buckets are skipped; their
// _sum and _count series are kept.
type obsSnapshot map[string]float64

func readObs() obsSnapshot {
	s := obsSnapshot{}
	obs.Default.Collect(func(p obs.SamplePoint) {
		if strings.HasSuffix(p.Name, "_bucket") {
			return
		}
		key := p.Name
		if len(p.Labels) > 0 {
			parts := make([]string, len(p.Labels))
			for i := range p.Labels {
				parts[i] = p.Labels[i] + "=" + p.Values[i]
			}
			key += "{" + strings.Join(parts, ",") + "}"
		}
		s[key] = p.Value
	})
	return s
}

// sub returns after − before for one series (0 if absent).
func (after obsSnapshot) sub(before obsSnapshot, key string) float64 {
	return after[key] - before[key]
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// closedLoop runs users concurrent callers, each sending its next request
// as soon as the previous one answered. The callers walk one shared,
// fixed sequence, so the work done in a run is the same prefix of that
// sequence every time. It runs for window, and on past it until at least
// minSamples requests completed (capped at 3× window). It returns each
// request's result and its completion offset from the start.
func closedLoop(users int, window time.Duration, minSamples int, next func(i int) result) ([]result, []time.Duration, time.Duration) {
	var cursor atomic.Int64
	var completed atomic.Int64
	type rec struct {
		r    result
		done time.Duration
	}
	perUser := make([][]rec, users)
	start := time.Now()
	var wg sync.WaitGroup
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			for {
				el := time.Since(start)
				if el >= window && (completed.Load() >= int64(minSamples) || el >= 3*window) {
					return
				}
				i := int(cursor.Add(1) - 1)
				r := next(i)
				r.item = i
				perUser[u] = append(perUser[u], rec{r: r, done: time.Since(start)})
				completed.Add(1)
			}
		}(u)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []rec
	for _, recs := range perUser {
		all = append(all, recs...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].done < all[j].done })
	results := make([]result, len(all))
	offsets := make([]time.Duration, len(all))
	for i, r := range all {
		results[i] = r.r
		offsets[i] = r.done
	}
	return results, offsets, elapsed
}

// openLoop sends one request per due time, each on its own goroutine,
// whatever the state of earlier requests. Latency runs from the due time.
// If more than maxInFlight requests are outstanding the generator stops
// sending; the unsent requests count as attempted and missing. It returns
// the results in due order and how late the generator sent each request.
func openLoop(dues []time.Time, maxInFlight int, send func(i int) (status int, match bool)) ([]result, []time.Duration) {
	results := make([]result, len(dues))
	late := make([]time.Duration, 0, len(dues))
	var inFlight atomic.Int64
	var wg sync.WaitGroup
	for i, due := range dues {
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if inFlight.Load() >= int64(maxInFlight) {
			for j := i; j < len(dues); j++ {
				results[j] = result{item: j}
			}
			break
		}
		sent := time.Now()
		late = append(late, sent.Sub(due))
		inFlight.Add(1)
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			defer inFlight.Add(-1)
			status, match := send(i)
			results[i] = result{item: i, status: status, match: match, latency: time.Since(due)}
		}(i, due)
	}
	wg.Wait()
	return results, late
}

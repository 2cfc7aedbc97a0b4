// Package tsdb is an in-process ring-buffer time-series store: it scrapes
// the obs registry on a fixed interval, keeps a bounded window of points
// per series, and answers the windowed queries (rate, delta, quantile-
// over-time) the alert engine and the dashboard are built on.
//
// Prodigy already *exposes* instantaneous metrics on /metrics; what it
// could not answer before this package is "is the detector healthy over
// time" — a question that needs history. Running a real TSDB next to the
// detector is not an option on an HPC management node, so this is the
// smallest store that supports the alert rules: fixed retention, fixed
// memory, no persistence, no dependencies.
//
// Determinism: every time source is injected (Config.Now), and ScrapeOnce
// is callable directly, so tests and the e2e demo drive the store with a
// fake clock and never sleep.
package tsdb

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"prodigy/internal/obs"
)

// Config sizes the store and injects its clock.
type Config struct {
	// Interval between scrapes for the background loop (Start). Also the
	// nominal sample spacing assumed by rate queries. Default 5s.
	Interval time.Duration
	// Retention is the number of points kept per series. Default 720
	// (one hour at 5s spacing). Memory is bounded by
	// retention × live series × 16 bytes.
	Retention int
	// Now is the clock; defaults to time.Now. Tests inject a fake.
	Now func() time.Time
	// AfterScrape, when set, runs after every scrape (including manual
	// ScrapeOnce) with the scrape timestamp — the alert engine's
	// evaluation hook, so alerts see each new point exactly once.
	AfterScrape func(t time.Time)
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 5 * time.Second
	}
	if c.Retention <= 0 {
		c.Retention = 720
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Point is one sample: millisecond unix timestamp and value.
type Point struct {
	T int64   `json:"t"`
	V float64 `json:"v"`
}

// series is one named label-set with a ring of points.
type series struct {
	name        string
	labelNames  []string
	labelValues []string
	points      []Point // ring, capacity = Retention
	head        int     // next write position
	count       int     // valid points, ≤ len(points)
}

// at returns the i-th oldest valid point (0 ≤ i < count).
func (s *series) at(i int) Point {
	start := s.head - s.count
	if start < 0 {
		start += len(s.points)
	}
	return s.points[(start+i)%len(s.points)]
}

func (s *series) push(p Point) {
	if len(s.points) == 0 {
		return
	}
	s.points[s.head] = p
	s.head = (s.head + 1) % len(s.points)
	if s.count < len(s.points) {
		s.count++
	}
}

// Store scrapes a registry into bounded per-series rings.
type Store struct {
	cfg Config
	reg *obs.Registry

	mu     sync.RWMutex
	series map[string]*series

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// Self-metrics: the store reports its own health into the registry it
// scrapes, so scrape cadence and series growth are visible on /metrics
// and (one scrape later) in the store itself.
var (
	tsdbScrapes = obs.Default.NewCounter("tsdb_scrapes_total",
		"Registry scrapes performed by the in-process tsdb.")
	tsdbSamples = obs.Default.NewCounter("tsdb_samples_appended_total",
		"Samples appended across all tsdb series.")
	tsdbSeries = obs.Default.NewGauge("tsdb_series",
		"Live series tracked by the in-process tsdb.")
)

// New returns a store scraping reg (nil means obs.Default).
func New(reg *obs.Registry, cfg Config) *Store {
	if reg == nil {
		reg = obs.Default
	}
	return &Store{
		cfg:    cfg.withDefaults(),
		reg:    reg,
		series: make(map[string]*series),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
}

// Now returns the store's clock reading. Query surfaces built on the
// store (the /api/timeseries handler) anchor "now" here so an injected
// test clock governs the whole pipeline, not just scraping.
func (s *Store) Now() time.Time { return s.cfg.Now() }

// seriesID keys a series by name + label values; label values come from
// the registry's own deterministic enumeration so the key is stable.
func seriesID(name string, values []string) string {
	if len(values) == 0 {
		return name
	}
	return name + "\x1e" + strings.Join(values, "\x1f")
}

// ScrapeOnce samples every registry series at the injected clock's
// current time, then runs AfterScrape. Safe for concurrent use with
// queries; scrapes themselves must not run concurrently (the background
// loop serializes them, tests call it from one goroutine).
func (s *Store) ScrapeOnce() {
	now := s.cfg.Now()
	ts := now.UnixMilli()
	var appended int
	s.mu.Lock()
	s.reg.Collect(func(p obs.SamplePoint) {
		id := seriesID(p.Name, p.Values)
		sr, ok := s.series[id]
		if !ok {
			sr = &series{
				name:        p.Name,
				labelNames:  append([]string(nil), p.Labels...),
				labelValues: append([]string(nil), p.Values...),
				points:      make([]Point, s.cfg.Retention),
			}
			s.series[id] = sr
		}
		sr.push(Point{T: ts, V: p.Value})
		appended++
	})
	nSeries := len(s.series)
	s.mu.Unlock()

	tsdbScrapes.Inc()
	tsdbSamples.Add(float64(appended))
	tsdbSeries.Set(float64(nSeries))
	if s.cfg.AfterScrape != nil {
		s.cfg.AfterScrape(now)
	}
}

// Start launches the background scrape loop. Stop terminates it.
func (s *Store) Start() {
	go func() {
		defer close(s.done)
		tick := time.NewTicker(s.cfg.Interval)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				s.ScrapeOnce()
			}
		}
	}()
}

// Stop halts the background loop and waits for it to exit. Safe to call
// multiple times; a Store that was never Started must not be Stopped.
func (s *Store) Stop() {
	s.stopOnce.Do(func() { close(s.stop) })
	<-s.done
}

// matches reports whether the series satisfies every matcher (exact
// label-value equality; a matcher on an absent label fails).
func (sr *series) matches(matchers map[string]string) bool {
	for k, want := range matchers {
		found := false
		for i, ln := range sr.labelNames {
			if ln == k {
				found = sr.labelValues[i] == want
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Result is one series' worth of query output.
type Result struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Points []Point           `json:"points"`
}

func (sr *series) labelMap() map[string]string {
	if len(sr.labelNames) == 0 {
		return nil
	}
	m := make(map[string]string, len(sr.labelNames))
	for i, ln := range sr.labelNames {
		m[ln] = sr.labelValues[i]
	}
	return m
}

// Query returns the raw points of every series named name that satisfies
// the matchers, restricted to timestamps in [from, to] (zero times mean
// unbounded). Results are sorted by label values.
func (s *Store) Query(name string, matchers map[string]string, from, to time.Time) []Result {
	var fromMs, toMs int64
	if !from.IsZero() {
		fromMs = from.UnixMilli()
	}
	toMs = int64(1<<63 - 1)
	if !to.IsZero() {
		toMs = to.UnixMilli()
	}

	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []Result
	for _, sr := range s.series {
		if sr.name != name || !sr.matches(matchers) {
			continue
		}
		res := Result{Name: sr.name, Labels: sr.labelMap()}
		for i := 0; i < sr.count; i++ {
			p := sr.at(i)
			if p.T >= fromMs && p.T <= toMs {
				res.Points = append(res.Points, p)
			}
		}
		out = append(out, res)
	}
	sort.Slice(out, func(i, j int) bool {
		return fmt.Sprint(out[i].Labels) < fmt.Sprint(out[j].Labels)
	})
	return out
}

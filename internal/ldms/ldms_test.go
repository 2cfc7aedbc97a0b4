package ldms

import (
	"strings"
	"sync"
	"testing"
)

func TestSchemaShape(t *testing.T) {
	defs := Schema()
	if len(defs) < 100 {
		t.Fatalf("schema has %d metrics; the paper's node-level set is ~156", len(defs))
	}
	seen := map[string]bool{}
	samplers := map[SamplerName]int{}
	for _, d := range defs {
		q := d.QualifiedName()
		if seen[q] {
			t.Fatalf("duplicate metric %s", q)
		}
		seen[q] = true
		samplers[d.Sampler]++
		if !strings.Contains(q, "::") {
			t.Fatalf("qualified name %q missing :: separator", q)
		}
	}
	for _, s := range []SamplerName{Meminfo, Vmstat, Procstat} {
		if samplers[s] < 10 {
			t.Fatalf("sampler %s has only %d metrics", s, samplers[s])
		}
	}
}

func TestQualifiedNameFormat(t *testing.T) {
	d := MetricDef{Name: "MemFree", Sampler: Meminfo}
	if d.QualifiedName() != "MemFree::meminfo" {
		t.Fatalf("QualifiedName = %q", d.QualifiedName())
	}
}

func TestSchemaBySampler(t *testing.T) {
	accum := 0
	for _, d := range Schema() {
		switch {
		case d.Sampler == Meminfo && d.Accumulated:
			t.Fatalf("meminfo metric %s must be a gauge", d.Name)
		case d.Sampler == Procstat && d.Accumulated:
			accum++
		}
	}
	if accum < 10 {
		t.Fatalf("procstat should be mostly accumulated counters, got %d", accum)
	}
}

func TestAccumulatedNames(t *testing.T) {
	names := AccumulatedNames()
	want := map[string]bool{
		"pgfault::vmstat": true, "user::procstat": true, "ctxt::procstat": true,
		"pgrotated::vmstat": true,
	}
	got := map[string]bool{}
	for _, n := range names {
		got[n] = true
	}
	for n := range want {
		if !got[n] {
			t.Errorf("accumulated name %s missing", n)
		}
	}
	if got["MemFree::meminfo"] {
		t.Error("MemFree is a gauge, not accumulated")
	}
}

// The counter list is built once: every call (one per analysed job on
// the dashboard path) shares the same slice and allocates nothing.
func TestAccumulatedNamesShared(t *testing.T) {
	a, b := AccumulatedNames(), AccumulatedNames()
	if len(a) == 0 || &a[0] != &b[0] {
		t.Fatal("AccumulatedNames rebuilt its list")
	}
	if n := testing.AllocsPerRun(10, func() { _ = AccumulatedNames() }); n != 0 {
		t.Fatalf("AccumulatedNames allocates %v/call, want 0", n)
	}
}

// fakeSource returns constant values and records how it was sampled.
type fakeSource struct {
	component int
	calls     []int64
}

func (f *fakeSource) Sample(t int64) map[SamplerName]map[string]float64 {
	f.calls = append(f.calls, t)
	return map[SamplerName]map[string]float64{
		Meminfo: {"MemFree": float64(100 + f.component)},
		Vmstat:  {"pgfault": float64(t)},
	}
}

type countingSink struct {
	mu   sync.Mutex
	rows []Row
}

func (c *countingSink) Ingest(r Row) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rows = append(c.rows, r)
}

func TestAggregateCollectsAllDaemons(t *testing.T) {
	sources := []*fakeSource{{component: 1}, {component: 2}, {component: 3}}
	var daemons []*Daemon
	for _, s := range sources {
		daemons = append(daemons, &Daemon{JobID: 42, Component: s.component, Source: s})
	}
	sink := &countingSink{}
	Aggregate(daemons, 10, sink)
	// 3 nodes × 10 seconds × 2 samplers.
	if len(sink.rows) != 60 {
		t.Fatalf("got %d rows", len(sink.rows))
	}
	// Each source sampled every second exactly once, in order.
	for _, s := range sources {
		if len(s.calls) != 10 {
			t.Fatalf("source %d sampled %d times", s.component, len(s.calls))
		}
		for i, ts := range s.calls {
			if ts != int64(i) {
				t.Fatalf("source %d out-of-order sampling: %v", s.component, s.calls)
			}
		}
	}
	for _, r := range sink.rows {
		if r.JobID != 42 {
			t.Fatal("wrong job id")
		}
	}
}

func TestDropProbZeroKeepsEverything(t *testing.T) {
	src := &fakeSource{component: 1}
	d := &Daemon{JobID: 1, Component: 1, Source: src, Cfg: CollectConfig{DropProb: 0}}
	sink := &countingSink{}
	Aggregate([]*Daemon{d}, 50, sink)
	if len(sink.rows) != 100 {
		t.Fatalf("got %d rows, want 100", len(sink.rows))
	}
}

func TestDropProbOneDropsEverything(t *testing.T) {
	src := &fakeSource{component: 1}
	d := &Daemon{JobID: 1, Component: 1, Source: src, Cfg: CollectConfig{DropProb: 1}}
	sink := &countingSink{}
	Aggregate([]*Daemon{d}, 20, sink)
	if len(sink.rows) != 0 {
		t.Fatalf("got %d rows, want 0", len(sink.rows))
	}
	// The source is still sampled (the node keeps running even when
	// telemetry is lost).
	if len(src.calls) != 20 {
		t.Fatalf("source sampled %d times", len(src.calls))
	}
}

package dsos

import (
	"math/rand"
	"sync"
	"testing"

	"prodigy/internal/cluster"
	"prodigy/internal/ldms"
	"prodigy/internal/timeseries"
)

func row(job int64, comp int, ts int64, sampler ldms.SamplerName, vals map[string]float64) ldms.Row {
	return ldms.Row{JobID: job, Component: comp, Timestamp: ts, Sampler: sampler, Values: vals}
}

func TestIngestAndQuerySampler(t *testing.T) {
	s := NewStore()
	s.Ingest(row(1, 5, 0, ldms.Meminfo, map[string]float64{"MemFree": 100}))
	s.Ingest(row(1, 5, 1, ldms.Meminfo, map[string]float64{"MemFree": 90}))
	s.Ingest(row(1, 5, 2, ldms.Meminfo, map[string]float64{"MemFree": 80}))
	tb, err := s.QuerySampler(1, 5, ldms.Meminfo)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 3 {
		t.Fatalf("len = %d", tb.Len())
	}
	col := tb.Column("MemFree::meminfo")
	if col == nil || col[0] != 100 || col[2] != 80 {
		t.Fatalf("column = %v", col)
	}
}

func TestOutOfOrderIngestion(t *testing.T) {
	s := NewStore()
	s.Ingest(row(1, 1, 5, ldms.Vmstat, map[string]float64{"pgfault": 50}))
	s.Ingest(row(1, 1, 2, ldms.Vmstat, map[string]float64{"pgfault": 20}))
	s.Ingest(row(1, 1, 9, ldms.Vmstat, map[string]float64{"pgfault": 90}))
	tb, err := s.QuerySampler(1, 1, ldms.Vmstat)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{2, 5, 9}
	for i, ts := range want {
		if tb.Timestamps[i] != ts {
			t.Fatalf("timestamps = %v", tb.Timestamps)
		}
	}
	col := tb.Column("pgfault::vmstat")
	if col[0] != 20 || col[1] != 50 || col[2] != 90 {
		t.Fatalf("values not reordered: %v", col)
	}
}

func TestLateColumnsBackfilled(t *testing.T) {
	s := NewStore()
	s.Ingest(row(1, 1, 0, ldms.Meminfo, map[string]float64{"MemFree": 1}))
	// Second row introduces a metric unseen in the first.
	s.Ingest(row(1, 1, 1, ldms.Meminfo, map[string]float64{"MemFree": 2, "Cached": 7}))
	tb, err := s.QuerySampler(1, 1, ldms.Meminfo)
	if err != nil {
		t.Fatal(err)
	}
	cached := tb.Column("Cached::meminfo")
	if !timeseries.IsMissing(cached[0]) || cached[1] != 7 {
		t.Fatalf("backfill wrong: %v", cached)
	}
}

func TestJobsAndComponents(t *testing.T) {
	s := NewStore()
	s.Ingest(row(3, 7, 0, ldms.Meminfo, map[string]float64{"MemFree": 1}))
	s.Ingest(row(3, 9, 0, ldms.Meminfo, map[string]float64{"MemFree": 1}))
	s.Ingest(row(1, 2, 0, ldms.Meminfo, map[string]float64{"MemFree": 1}))
	jobs := s.Jobs()
	if len(jobs) != 2 || jobs[0] != 1 || jobs[1] != 3 {
		t.Fatalf("jobs = %v", jobs)
	}
	comps := s.Components(3)
	if len(comps) != 2 || comps[0] != 7 || comps[1] != 9 {
		t.Fatalf("components = %v", comps)
	}
	if len(s.Components(99)) != 0 {
		t.Fatal("unknown job should have no components")
	}
}

func TestQueryErrors(t *testing.T) {
	s := NewStore()
	if _, err := s.QuerySampler(1, 1, ldms.Meminfo); err == nil {
		t.Fatal("expected error for missing data")
	}
	if _, err := s.QueryJobInto(nil, 1); err == nil {
		t.Fatal("expected error for unknown job")
	}
}

func TestQueryJobAlignsSamplers(t *testing.T) {
	s := NewStore()
	// meminfo has seconds 0..2; vmstat misses second 1.
	for ts := int64(0); ts < 3; ts++ {
		s.Ingest(row(1, 4, ts, ldms.Meminfo, map[string]float64{"MemFree": float64(ts)}))
	}
	s.Ingest(row(1, 4, 0, ldms.Vmstat, map[string]float64{"pgfault": 10}))
	s.Ingest(row(1, 4, 2, ldms.Vmstat, map[string]float64{"pgfault": 30}))
	tables, err := s.QueryJobInto(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[4]
	if tb == nil {
		t.Fatal("component 4 missing")
	}
	// Aligned to common timestamps {0, 2}.
	if tb.Len() != 2 || tb.Timestamps[0] != 0 || tb.Timestamps[1] != 2 {
		t.Fatalf("aligned timestamps = %v", tb.Timestamps)
	}
	if tb.Column("MemFree::meminfo") == nil || tb.Column("pgfault::vmstat") == nil {
		t.Fatal("columns from both samplers expected")
	}
}

func TestConcurrentIngest(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 200; i++ {
				s.Ingest(row(int64(g%3), g, int64(i), ldms.Meminfo,
					map[string]float64{"MemFree": rng.Float64()}))
			}
		}(g)
	}
	wg.Wait()
	if s.NumRows() != 1600 {
		t.Fatalf("rows = %d", s.NumRows())
	}
}

// TestEndToEndCollection is the integration test across cluster → ldms →
// dsos: simulate a job, collect its telemetry, query it back, and verify
// the data has the structure the analytics pipeline expects.
func TestEndToEndCollection(t *testing.T) {
	sys := cluster.NewSystem("test", 4, cluster.VoltaNode(), 4)
	job, err := sys.Submit("nas-ft", 4, 60, 11)
	if err != nil {
		t.Fatal(err)
	}
	store := NewStore()
	sys.CollectJob(job, ldms.CollectConfig{DropProb: 0.02, Seed: 5}, store)

	tables, err := store.QueryJobInto(nil, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 4 {
		t.Fatalf("%d components", len(tables))
	}
	for comp, tb := range tables {
		if tb.Len() < 40 {
			t.Fatalf("component %d has only %d aligned seconds", comp, tb.Len())
		}
		if tb.NumMetrics() < 100 {
			t.Fatalf("component %d has %d metrics", comp, tb.NumMetrics())
		}
		// Accumulated counters must be monotone in the query result too.
		pgfault := tb.Column("pgfault::vmstat")
		for i := 1; i < len(pgfault); i++ {
			if !timeseries.IsMissing(pgfault[i]) && !timeseries.IsMissing(pgfault[i-1]) &&
				pgfault[i] < pgfault[i-1] {
				t.Fatal("pgfault counter must be monotone")
			}
		}
	}
}

// TestQueryJobIntoMatchesPerSamplerAlign checks the in-place alignment of
// QueryJobInto against the copying path — copy every sampler with
// QuerySampler, then align the copies — over out-of-order, gappy,
// duplicated and late-column ingestion, with a dirty reused arena. It
// also checks the result never aliases the store: scribbling over it
// leaves the next query unchanged.
func TestQueryJobIntoMatchesPerSamplerAlign(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := NewStore()
	const job = 3
	samplers := []ldms.SamplerName{ldms.Meminfo, ldms.Vmstat, ldms.Procstat}
	for comp := 0; comp < 4; comp++ {
		// Component 3 reports one sampler only: its result must be a copy.
		use := samplers
		if comp == 3 {
			use = samplers[:1]
		}
		for _, sampler := range use {
			for _, ts := range rng.Perm(40) {
				if rng.Intn(8) == 0 {
					continue // dropped reading
				}
				vals := map[string]float64{"a": rng.Float64(), "b": float64(ts)}
				if ts > 20 {
					vals["late"] = rng.Float64() // column first seen mid-stream
				}
				s.Ingest(row(job, comp, int64(ts), sampler, vals))
				if rng.Intn(10) == 0 {
					s.Ingest(row(job, comp, int64(ts), sampler, vals)) // duplicate timestamp
				}
			}
		}
	}
	// The references are taken once, before any query result is
	// scribbled over, so a result aliasing the store shows up in the
	// next round.
	refs := make([]*timeseries.Table, 4)
	for comp := range refs {
		var tables []*timeseries.Table
		for _, sampler := range ldms.AllSamplers {
			if tb, err := s.QuerySampler(job, comp, sampler); err == nil {
				tables = append(tables, tb)
			}
		}
		refs[comp] = timeseries.AlignSortedInto(nil, tables...)
	}
	arena := &timeseries.Arena{}
	for round := 0; round < 3; round++ {
		arena.Reset()
		got, err := s.QueryJobInto(arena, job)
		if err != nil {
			t.Fatal(err)
		}
		for comp := 0; comp < 4; comp++ {
			want, tb := refs[comp], got[comp]
			if tb == nil || len(tb.Timestamps) != len(want.Timestamps) || len(tb.Order) != len(want.Order) {
				t.Fatalf("round %d component %d: shape differs from the reference", round, comp)
			}
			for i, ts := range want.Timestamps {
				if tb.Timestamps[i] != ts {
					t.Fatalf("round %d component %d: timestamp %d = %d, want %d", round, comp, i, tb.Timestamps[i], ts)
				}
			}
			for _, m := range want.Order {
				for i, v := range want.Columns[m] {
					if g := tb.Columns[m][i]; g != v && !(timeseries.IsMissing(g) && timeseries.IsMissing(v)) {
						t.Fatalf("round %d component %d: %s[%d] = %v, want %v", round, comp, m, i, g, v)
					}
				}
			}
			// Scribble over the result: the store must not see it.
			for _, m := range tb.Order {
				for i := range tb.Columns[m] {
					tb.Columns[m][i] = -1
				}
			}
			for i := range tb.Timestamps {
				tb.Timestamps[i] = -1
			}
		}
	}
}

// TestQueryJobIntoDuringIngest races arena queries against ingestion into
// the same job: out-of-order rows and late columns keep forcing re-sorts
// and re-indexing of the buffers the queries align in place. Under -race
// this pins the locking of the in-place alignment.
func TestQueryJobIntoDuringIngest(t *testing.T) {
	s := NewStore()
	for ts := int64(0); ts < 50; ts++ {
		for _, sampler := range []ldms.SamplerName{ldms.Meminfo, ldms.Vmstat} {
			s.Ingest(row(1, 0, ts, sampler, map[string]float64{"a": float64(ts)}))
		}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for ts := int64(200); ts > 50; ts-- {
			s.Ingest(row(1, 0, ts, ldms.Vmstat, map[string]float64{"a": 1, "late": float64(ts)}))
			s.Ingest(row(1, 0, ts, ldms.Meminfo, map[string]float64{"a": 2}))
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			arena := &timeseries.Arena{}
			for i := 0; i < 50; i++ {
				arena.Reset()
				tables, err := s.QueryJobInto(arena, 1)
				if err != nil {
					t.Error(err)
					return
				}
				if tb := tables[0]; tb == nil || tb.Len() < 50 {
					t.Error("component 0 lost rows")
					return
				}
			}
		}()
	}
	wg.Wait()
}

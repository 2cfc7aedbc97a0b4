// Package dsos simulates the Distributed Scalable Object Storage database
// of the paper's monitoring cluster (§4.1): a store built for continuous
// large-scale ingestion of telemetry rows and for the query pattern the
// analytics pipeline needs — "give me all sampler data for this job ID,
// per compute node, ordered by time".
//
// The store is an in-memory concurrent columnar index keyed by
// (job_id, component_id, sampler). The index maps sit under one store
// lock that ingestion and queries take shared (exclusive only to add a
// series); every series has its own lock, under which ingestion appends
// and queries capture the columns they read. Queries assemble
// time-ordered tables outside every lock, tolerating out-of-order arrival
// from the aggregator's fan-in.
package dsos

import (
	"fmt"
	"sort"
	"sync"

	"prodigy/internal/ldms"
	"prodigy/internal/timeseries"
)

// seriesKey identifies one stored series group.
type seriesKey struct {
	job       int64
	component int
	sampler   ldms.SamplerName
}

// buffer is the column-oriented storage of one (job, component, sampler).
//
// Queries read a buffer's slices outside its lock, which is safe because
// nothing ever writes below a slice's length once a query can see it:
// ingestion only appends (growth copies into a fresh array), and sorting
// replaces every slice with a new one. A query therefore captures the
// slice headers under the shared lock and reads them at leisure.
type buffer struct {
	mu         sync.RWMutex
	sampler    ldms.SamplerName
	timestamps []int64
	columns    map[string][]float64
	sorted     bool
	// names caches the lexicographically sorted metric list and qualified
	// caches the matching "metric::sampler" forms, so steady-state queries
	// neither re-sort the key set nor rebuild the name strings. Both are
	// invalidated by length whenever ingestion grows the column set.
	names     []string
	qualified []string
}

// storeGrowMin is the least number of cells a full store column grows by.
const storeGrowMin = 64

// grow appends v to s. A full s is copied into an array an eighth larger
// (at least storeGrowMin cells) rather than append's doubling: the store
// holds every job's telemetry for the life of the process, so doubling
// would leave up to half of it as slack capacity that the collector counts
// as live heap.
func grow[T int64 | float64](s []T, v T) []T {
	if len(s) == cap(s) {
		g := make([]T, len(s), len(s)+max(len(s)/8, storeGrowMin))
		copy(g, s)
		s = g
	}
	return append(s, v)
}

// appendLocked adds one row, keeping every column as long as the
// timestamp axis; caller holds mu exclusively.
func (b *buffer) appendLocked(r ldms.Row) {
	if n := len(b.timestamps); n > 0 && r.Timestamp < b.timestamps[n-1] {
		b.sorted = false
	}
	b.timestamps = grow(b.timestamps, r.Timestamp)
	n := len(b.timestamps)
	for m, v := range r.Values {
		col := b.columns[m]
		// Backfill a column first seen mid-stream with missing markers so
		// all columns stay aligned with the timestamp axis.
		for len(col) < n-1 {
			col = grow(col, timeseries.Missing)
		}
		b.columns[m] = grow(col, v)
	}
	// Pad columns absent from this row.
	for m, col := range b.columns {
		if len(col) < n {
			b.columns[m] = grow(col, timeseries.Missing)
		}
	}
}

// ensureNamesLocked (re)builds the sorted metric and qualified-name caches;
// caller holds mu exclusively.
func (b *buffer) ensureNamesLocked() {
	if len(b.names) == len(b.columns) {
		return
	}
	b.names = b.names[:0]
	for m := range b.columns {
		b.names = append(b.names, m)
	}
	sort.Strings(b.names)
	b.qualified = b.qualified[:0]
	for _, m := range b.names {
		b.qualified = append(b.qualified, m+"::"+string(b.sampler))
	}
}

// sortLocked re-orders a buffer by timestamp into fresh slices; caller
// holds mu exclusively.
func (b *buffer) sortLocked() {
	idx := make([]int, len(b.timestamps))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool { return b.timestamps[idx[i]] < b.timestamps[idx[j]] })
	newTS := make([]int64, len(idx))
	for i, p := range idx {
		newTS[i] = b.timestamps[p]
	}
	b.timestamps = newTS
	for m, col := range b.columns {
		newCol := make([]float64, len(idx))
		for i, p := range idx {
			newCol[i] = col[p]
		}
		b.columns[m] = newCol
	}
	b.sorted = true
}

// ReadSet names the qualified metrics ("metric::sampler") a pruned query
// gathers; a nil ReadSet gathers every metric. Build one per deployed
// model, not per query.
type ReadSet map[string]bool

// viewInto wraps the buffer's timestamp axis and the columns reads names
// in an arena table shell, sharing the buffer's storage, and lists every
// other metric in the shell's Order without a column. It holds the shared
// lock, or the exclusive one when the buffer must first be sorted or
// re-indexed. The view must only be read.
func (b *buffer) viewInto(a *timeseries.Arena, reads ReadSet) *timeseries.Table {
	b.mu.RLock()
	if b.sorted && len(b.names) == len(b.columns) {
		defer b.mu.RUnlock()
		return b.viewLocked(a, reads)
	}
	b.mu.RUnlock()
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.sorted {
		b.sortLocked()
	}
	b.ensureNamesLocked()
	return b.viewLocked(a, reads)
}

// viewLocked builds viewInto's table; caller holds mu.
func (b *buffer) viewLocked(a *timeseries.Arena, reads ReadSet) *timeseries.Table {
	t := a.NewTable(b.timestamps)
	for i, q := range b.qualified {
		if reads == nil || reads[q] {
			t.AddColumn(q, b.columns[b.names[i]])
		} else {
			t.Order = append(t.Order, q)
		}
	}
	return t
}

// Store is a concurrent telemetry store.
type Store struct {
	// mu guards the two index maps only; each buffer has its own lock.
	mu   sync.RWMutex
	data map[seriesKey]*buffer
	jobs map[int64]map[int]bool // job -> set of components
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{
		data: make(map[seriesKey]*buffer),
		jobs: make(map[int64]map[int]bool),
	}
}

// Ingest implements ldms.Sink. Rows may arrive in any order; queries sort
// on demand. Rows for different series go in concurrently.
func (s *Store) Ingest(r ldms.Row) {
	key := seriesKey{job: r.JobID, component: r.Component, sampler: r.Sampler}
	s.mu.RLock()
	b := s.data[key]
	s.mu.RUnlock()
	if b == nil {
		if b = s.publish(key, r); b == nil {
			return // r is the new series' first row
		}
	}
	b.mu.Lock()
	b.appendLocked(r)
	b.mu.Unlock()
}

// publish adds the series of key with r as its first row and returns nil,
// or returns the series' buffer if another writer published it first. A
// series is never visible without a row, so every listed component has
// data.
func (s *Store) publish(key seriesKey, r ldms.Row) *buffer {
	s.mu.Lock()
	defer s.mu.Unlock()
	if b := s.data[key]; b != nil {
		return b
	}
	b := &buffer{sampler: key.sampler, columns: make(map[string][]float64), sorted: true}
	b.appendLocked(r) // not yet shared
	s.data[key] = b
	comps, ok := s.jobs[key.job]
	if !ok {
		comps = make(map[int]bool)
		s.jobs[key.job] = comps
	}
	comps[key.component] = true
	return nil
}

// Jobs returns all stored job IDs, sorted.
func (s *Store) Jobs() []int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]int64, 0, len(s.jobs))
	for id := range s.jobs {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Components returns the compute nodes that reported data for a job,
// sorted.
func (s *Store) Components(job int64) []int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	comps := s.jobs[job]
	out := make([]int, 0, len(comps))
	for c := range comps {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}

// NumRows returns the total number of ingested rows (for monitoring).
func (s *Store) NumRows() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	total := 0
	for _, b := range s.data {
		b.mu.RLock()
		total += len(b.timestamps)
		b.mu.RUnlock()
	}
	return total
}

// buffers appends to dst the buffers of one (job, component), in
// ldms.AllSamplers order, skipping samplers it has no data for.
func (s *Store) buffers(dst []*buffer, job int64, component int) []*buffer {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, sampler := range ldms.AllSamplers {
		if b := s.data[seriesKey{job: job, component: component, sampler: sampler}]; b != nil {
			dst = append(dst, b)
		}
	}
	return dst
}

// QuerySampler returns the time-ordered table of one sampler's metrics for
// one (job, component), with metric names qualified as "metric::sampler".
// Missing seconds appear as gaps in the timestamp axis (dropped readings);
// rows sharing a timestamp are all kept, in arrival order.
func (s *Store) QuerySampler(job int64, component int, sampler ldms.SamplerName) (*timeseries.Table, error) {
	return s.QuerySamplerInto(nil, job, component, sampler)
}

// QuerySamplerInto is QuerySampler with the result's timestamp axis,
// columns and table shell carved out of the arena (nil falls back to plain
// allocation). The returned table is valid until the arena is reset.
func (s *Store) QuerySamplerInto(a *timeseries.Arena, job int64, component int, sampler ldms.SamplerName) (*timeseries.Table, error) {
	s.mu.RLock()
	b := s.data[seriesKey{job: job, component: component, sampler: sampler}]
	s.mu.RUnlock()
	if b == nil {
		return nil, fmt.Errorf("dsos: no %s data for job %d component %d", sampler, job, component)
	}
	v := b.viewInto(a, nil)
	ts := a.Ints(len(v.Timestamps))
	copy(ts, v.Timestamps)
	out := a.NewTable(ts)
	for _, m := range v.Order {
		col := a.Floats(len(ts))
		copy(col, v.Columns[m])
		out.AddColumn(m, col)
	}
	return out, nil
}

// QueryJobInto returns, for each component of the job, the aligned table of
// all its samplers' metrics (the DataGenerator input, §4.2.1): a
// QueryJobPrunedInto that gathers every metric.
func (s *Store) QueryJobInto(a *timeseries.Arena, job int64) (map[int]*timeseries.Table, error) {
	return s.QueryJobPrunedInto(a, job, nil)
}

// QueryJobPrunedInto returns, for each component of the job, its samplers'
// tables aligned on their common timestamps (timeseries.AlignSortedInto),
// gathering only the columns reads names. Every metric still appears in
// the table's Order, so positions in Order do not depend on reads, and a
// sampler none of whose metrics is read still bounds the common time
// axis. Components with no data for some sampler get only the samplers
// they have.
//
// Each buffer's slices are captured under its own lock and aligned
// outside every lock, so queries run in parallel with each other and with
// ingestion. Every value is copied once, straight into its aligned column,
// and the output comes from the arena a (nil allocates it fresh): a pooled
// caller assembles a job's tables with only the result map allocated.
func (s *Store) QueryJobPrunedInto(a *timeseries.Arena, job int64, reads ReadSet) (map[int]*timeseries.Table, error) {
	comps := s.Components(job)
	if len(comps) == 0 {
		return nil, fmt.Errorf("dsos: unknown job %d", job)
	}
	out := make(map[int]*timeseries.Table, len(comps))
	var bufArr [4]*buffer // one slot per sampler of ldms.AllSamplers, on the stack
	views := make([]*timeseries.Table, 0, len(ldms.AllSamplers))
	for _, c := range comps {
		views = views[:0]
		for _, b := range s.buffers(bufArr[:0], job, c) {
			views = append(views, b.viewInto(a, reads))
		}
		out[c] = timeseries.AlignSortedInto(a, views...)
	}
	return out, nil
}

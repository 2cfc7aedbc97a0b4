// Package dsos simulates the Distributed Scalable Object Storage database
// of the paper's monitoring cluster (§4.1): a store built for continuous
// large-scale ingestion of telemetry rows and for the query pattern the
// analytics pipeline needs — "give me all sampler data for this job ID,
// per compute node, ordered by time".
//
// The store is an in-memory concurrent columnar index keyed by
// (job_id, component_id, sampler): ingestion appends under a shard lock,
// and queries assemble time-ordered tables, tolerating out-of-order
// arrival from the aggregator's fan-in.
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

// column-oriented buffer for one (job, component, sampler).
type buffer struct {
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

// ensureNamesLocked (re)builds the sorted metric and qualified-name caches;
// caller holds mu.
func (b *buffer) ensureNamesLocked(sampler ldms.SamplerName) {
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
		b.qualified = append(b.qualified, m+"::"+string(sampler))
	}
}

// Store is a concurrent telemetry store.
type Store struct {
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
// on demand.
func (s *Store) Ingest(r ldms.Row) {
	key := seriesKey{job: r.JobID, component: r.Component, sampler: r.Sampler}
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.data[key]
	if !ok {
		b = &buffer{columns: make(map[string][]float64), sorted: true}
		s.data[key] = b
	}
	if n := len(b.timestamps); n > 0 && r.Timestamp < b.timestamps[n-1] {
		b.sorted = false
	}
	b.timestamps = append(b.timestamps, r.Timestamp)
	for m, v := range r.Values {
		col := b.columns[m]
		// Backfill a column first seen mid-stream with missing markers so
		// all columns stay aligned with the timestamp axis.
		for len(col) < len(b.timestamps)-1 {
			col = append(col, timeseries.Missing)
		}
		b.columns[m] = append(col, v)
	}
	// Pad columns absent from this row.
	for m, col := range b.columns {
		if len(col) < len(b.timestamps) {
			b.columns[m] = append(col, timeseries.Missing)
		}
	}
	comps, ok := s.jobs[r.JobID]
	if !ok {
		comps = make(map[int]bool)
		s.jobs[r.JobID] = comps
	}
	comps[r.Component] = true
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
		total += len(b.timestamps)
	}
	return total
}

// QuerySampler returns the time-ordered table of one sampler's metrics for
// one (job, component), with metric names qualified as "metric::sampler".
// Missing seconds appear as gaps in the timestamp axis (dropped readings).
func (s *Store) QuerySampler(job int64, component int, sampler ldms.SamplerName) (*timeseries.Table, error) {
	return s.QuerySamplerInto(nil, job, component, sampler)
}

// QuerySamplerInto is QuerySampler with the result's timestamp axis,
// columns and table shell carved out of the arena (nil falls back to plain
// allocation). The returned table is valid until the arena is reset.
func (s *Store) QuerySamplerInto(a *timeseries.Arena, job int64, component int, sampler ldms.SamplerName) (*timeseries.Table, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.bufferLocked(job, component, sampler)
	if !ok {
		return nil, fmt.Errorf("dsos: no %s data for job %d component %d", sampler, job, component)
	}
	return b.copyInto(a), nil
}

// bufferLocked returns the sorted, name-indexed buffer of one (job,
// component, sampler); caller holds mu.
func (s *Store) bufferLocked(job int64, component int, sampler ldms.SamplerName) (*buffer, bool) {
	b, ok := s.data[seriesKey{job: job, component: component, sampler: sampler}]
	if !ok {
		return nil, false
	}
	if !b.sorted {
		b.sortLocked()
	}
	b.ensureNamesLocked(sampler)
	return b, true
}

// copyInto copies the buffer into an arena table, padding any column
// shorter than the timestamp axis with missing markers; caller holds mu.
func (b *buffer) copyInto(a *timeseries.Arena) *timeseries.Table {
	ts := a.Ints(len(b.timestamps))
	copy(ts, b.timestamps)
	out := a.NewTable(ts)
	for i, m := range b.names {
		src := b.columns[m]
		col := a.Floats(len(ts))
		copy(col, src)
		for j := len(src); j < len(ts); j++ {
			col[j] = timeseries.Missing
		}
		out.AddColumn(b.qualified[i], col)
	}
	return out
}

// viewInto wraps the buffer's own storage in an arena table shell without
// copying, for an alignment that reads it before mu is released. Ingest
// pads every column to the timestamp axis, which AddColumn checks. Caller
// holds mu.
func (b *buffer) viewInto(a *timeseries.Arena) *timeseries.Table {
	out := a.NewTable(b.timestamps)
	for i, m := range b.names {
		out.AddColumn(b.qualified[i], b.columns[m])
	}
	return out
}

// sortLocked re-orders a buffer by timestamp; caller holds mu.
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
			if p < len(col) {
				newCol[i] = col[p]
			} else {
				newCol[i] = timeseries.Missing
			}
		}
		b.columns[m] = newCol
	}
	b.sorted = true
}

// QueryJobInto returns, for each component of the job, the aligned table of
// all three samplers' metrics (the DataGenerator input, §4.2.1).
// Components with no data for some sampler get only the samplers they
// have. The aligned output and every column in it come from the arena a
// (nil allocates them fresh), so a pooled caller assembles a job's
// tables with only the per-call result map allocated. Alignment uses the
// sorted-merge AlignSortedInto and reads the store's buffers in place
// under the lock (buffers are sorted on demand), so each value is copied
// once, straight into its aligned column, and the arena holds only the
// result.
func (s *Store) QueryJobInto(a *timeseries.Arena, job int64) (map[int]*timeseries.Table, error) {
	comps := s.Components(job)
	if len(comps) == 0 {
		return nil, fmt.Errorf("dsos: unknown job %d", job)
	}
	out := make(map[int]*timeseries.Table, len(comps))
	var bufArr [4]*buffer // one slot per sampler of ldms.AllSamplers, on the stack
	bufs := bufArr[:0]
	tables := make([]*timeseries.Table, 0, len(ldms.AllSamplers))
	for _, c := range comps {
		bufs = bufs[:0]
		s.mu.Lock()
		for _, sampler := range ldms.AllSamplers {
			if b, ok := s.bufferLocked(job, c, sampler); ok {
				bufs = append(bufs, b)
			}
		}
		tb := alignInto(a, bufs, tables[:0])
		s.mu.Unlock()
		if tb != nil {
			out[c] = tb
		}
	}
	return out, nil
}

// alignInto aligns one component's buffers into an arena table, reading
// them in place; caller holds mu. A lone buffer is its own alignment and
// is copied, so the result never aliases the store. tables is scratch.
func alignInto(a *timeseries.Arena, bufs []*buffer, tables []*timeseries.Table) *timeseries.Table {
	switch len(bufs) {
	case 0:
		return nil
	case 1:
		return bufs[0].copyInto(a)
	}
	for _, b := range bufs {
		tables = append(tables, b.viewInto(a))
	}
	return timeseries.AlignSortedInto(a, tables...)
}

// DeleteJob removes all data of a job, reclaiming memory after analysis.
func (s *Store) DeleteJob(job int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for key := range s.data {
		if key.job == job {
			delete(s.data, key)
		}
	}
	delete(s.jobs, job)
}

package timeseries

import (
	"sync"

	"prodigy/internal/obs"
)

// Arena recycles the allocations of the query/assembly path: timestamp
// axes, metric columns and Table shells. Query code carves slices out of
// large reusable slabs instead of allocating per column, so the per-job
// table assembly of AnalyzeJob settles to zero allocations once the slabs
// have grown to the job's working-set size.
//
// Everything handed out by an arena is valid only until the next Reset (or
// PutArena): callers must finish with the tables before recycling. Slices
// are returned with unspecified contents — the query path overwrites every
// cell. A nil *Arena is valid and falls back to plain allocation, so one
// code path serves both the pooled hot loop and one-shot callers.
//
// An Arena is not safe for concurrent use; pool instances with
// GetArena/PutArena.
type Arena struct {
	// chunks are the float slabs, carved in order and all kept across
	// Reset: growing adds one fixed-size chunk rather than doubling into a
	// fresh slab, so an arena allocates only what its largest cycle uses
	// and never strands a half-used predecessor.
	chunks [][]float64
	cur    int // chunk being carved
	fOff   int // carve offset within chunks[cur]
	ints   []int64
	iOff   int
	// tables retains every shell ever handed out so Reset can recycle
	// them: the timestamp axis is swapped, the column map cleared (Go
	// keeps the buckets) and Order truncated in place.
	tables []*Table
	tOff   int
}

// Slab sizes: floats grow a chunk at a time (a request larger than a
// chunk gets a chunk of its own size); the int slab doubles from its
// minimum and stays put once it covers a cycle.
const (
	arenaChunkFloats = 32 << 10
	arenaMinInts     = 1024
)

// Reset recycles the arena: previously handed-out slices and tables are
// reused by subsequent calls, so anything still referencing them must be
// done.
func (a *Arena) Reset() {
	if a == nil {
		return
	}
	a.cur, a.fOff, a.iOff, a.tOff = 0, 0, 0, 0
}

// Floats returns an n-element slice with unspecified contents, capacity
// clipped to n so appends cannot bleed into a neighbouring allocation.
func (a *Arena) Floats(n int) []float64 {
	if a == nil {
		return make([]float64, n)
	}
	for ; a.cur < len(a.chunks); a.cur, a.fOff = a.cur+1, 0 {
		if c := a.chunks[a.cur]; a.fOff+n <= len(c) {
			s := c[a.fOff : a.fOff+n : a.fOff+n]
			a.fOff += n
			return s
		}
	}
	a.chunks = append(a.chunks, make([]float64, max(n, arenaChunkFloats)))
	a.fOff = n
	return a.chunks[a.cur][:n:n]
}

// Ints returns an n-element int64 slice with unspecified contents.
func (a *Arena) Ints(n int) []int64 {
	if a == nil {
		return make([]int64, n)
	}
	if a.iOff+n > len(a.ints) {
		size := 2 * len(a.ints)
		if size < n {
			size = n
		}
		if size < arenaMinInts {
			size = arenaMinInts
		}
		a.ints = make([]int64, size)
		a.iOff = 0
	}
	s := a.ints[a.iOff : a.iOff+n : a.iOff+n]
	a.iOff += n
	return s
}

// NewTable returns an empty table on the given timestamp axis, recycling a
// shell from a previous cycle when one is free: the column map keeps its
// buckets across clear, so steady-state reinsertion of the same metrics
// allocates nothing.
func (a *Arena) NewTable(timestamps []int64) *Table {
	if a == nil {
		return NewTable(timestamps)
	}
	if a.tOff < len(a.tables) {
		t := a.tables[a.tOff]
		a.tOff++
		t.Timestamps = timestamps
		clear(t.Columns)
		t.Order = t.Order[:0]
		t.gappy = t.gappy[:0]
		t.scanned = false
		return t
	}
	t := NewTable(timestamps)
	a.tables = append(a.tables, t)
	a.tOff++
	return t
}

var arenaPool = sync.Pool{New: func() any { return new(Arena) }}

// Pool-efficiency counters, mirroring the mat/features workspace pools: a
// high steady-state miss rate means the GC drains the pool between
// checkouts and assembly re-grows its slabs instead of reusing warm ones.
var (
	arenaPoolHits = obs.Default.NewCounter("timeseries_arena_pool_hits_total",
		"Arena checkouts satisfied by a pooled instance with warm slabs.")
	arenaPoolMisses = obs.Default.NewCounter("timeseries_arena_pool_misses_total",
		"Arena checkouts that had to allocate a fresh instance.")
)

// GetArena checks a reset arena out of the process-wide pool.
func GetArena() *Arena {
	a := arenaPool.Get().(*Arena)
	if a.chunks != nil || a.tables != nil {
		arenaPoolHits.Inc()
	} else {
		arenaPoolMisses.Inc()
	}
	a.Reset()
	return a
}

// PutArena resets a and returns it to the pool. The caller must be done
// with every slice and table the arena handed out.
func PutArena(a *Arena) {
	if a == nil {
		return
	}
	a.Reset()
	arenaPool.Put(a)
}

// AlignSortedInto is Align for inputs whose timestamp axes are already
// sorted ascending (the dsos query path sorts buffers on demand): a k-way
// sorted merge replaces Align's hash-map bookkeeping, and the output
// timestamp axis, columns and shell come from the arena. Duplicate
// timestamps within a table collapse to the last row, matching Align; a
// single table is gathered the same way, so the output never aliases an
// input. Names an input lists in Order without a column (a pruned
// gather) pass through to the output's Order, still without one. The
// gather records which output columns hold a Missing value, so
// InterpolateAll visits only those. A nil arena falls back to plain
// allocation.
func AlignSortedInto(a *Arena, tables ...*Table) *Table {
	if len(tables) == 0 {
		return a.NewTable(nil)
	}
	// Pass 1: intersect the sorted axes. pos records, per (table, common
	// timestamp), the source row to gather from — for duplicates the last
	// row with that timestamp, as Align's index map keeps.
	shortest := len(tables[0].Timestamps)
	for _, tb := range tables[1:] {
		if len(tb.Timestamps) < shortest {
			shortest = len(tb.Timestamps)
		}
	}
	common := a.Ints(shortest)
	pos := a.Ints(shortest * len(tables))
	cursors := a.Ints(len(tables))
	for j := range cursors {
		cursors[j] = 0 // arena slices come back dirty
	}
	n := 0
scan:
	for i0 := 0; i0 < len(tables[0].Timestamps) && n < shortest; i0++ {
		ts := tables[0].Timestamps[i0]
		if i0+1 < len(tables[0].Timestamps) && tables[0].Timestamps[i0+1] == ts {
			continue // collapse duplicate runs: only the last occurrence scans
		}
		inAll := true
		for j := 1; j < len(tables); j++ {
			axis := tables[j].Timestamps
			c := int(cursors[j])
			for c < len(axis) && axis[c] < ts {
				c++
			}
			if c == len(axis) {
				break scan // table j exhausted: no further common timestamps
			}
			if axis[c] != ts {
				cursors[j] = int64(c)
				inAll = false
				continue
			}
			for c+1 < len(axis) && axis[c+1] == ts {
				c++
			}
			cursors[j] = int64(c)
			if inAll {
				pos[n*len(tables)+j] = int64(c)
			}
		}
		if inAll {
			common[n] = ts
			pos[n*len(tables)] = int64(i0)
			n++
		}
	}
	common = common[:n]

	// Pass 2: gather the columns of every table at the common rows.
	out := a.NewTable(common)
	for j, tb := range tables {
		for _, m := range tb.Order {
			src, ok := tb.Columns[m]
			if !ok {
				out.Order = append(out.Order, m)
				continue
			}
			col := a.Floats(n)
			gap := false
			for i := 0; i < n; i++ {
				v := src[pos[i*len(tables)+j]]
				if IsMissing(v) {
					gap = true
				}
				col[i] = v
			}
			out.AddColumn(m, col)
			if gap {
				out.gappy = append(out.gappy, m)
			}
		}
	}
	out.scanned = true
	return out
}

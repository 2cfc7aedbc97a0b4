package timeseries

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randSortedTable builds a table with a sorted timestamp axis where each
// step has a 50% chance of duplicating the previous timestamp — the
// densest duplicate mix the dsos buffers can produce — and a quarter of
// the values are Missing.
func randSortedTable(rng *rand.Rand, name string) *Table {
	n := rng.Intn(8)
	ts := make([]int64, n)
	v := int64(0)
	for i := range ts {
		v += int64(rng.Intn(2))
		ts[i] = v
	}
	tb := NewTable(ts)
	col := make([]float64, n)
	for i := range col {
		col[i] = float64(i)
		if rng.Intn(4) == 0 {
			col[i] = Missing
		}
	}
	tb.AddColumn(name, col)
	return tb
}

// TestAlignSortedIntoMatchesAlign differential-tests the k-way merge
// against the hash-map reference over random small sorted inputs,
// including a single table, empty tables and heavy duplicate runs, then
// checks that interpolating only the columns the merge recorded as gappy
// fills the same cells as interpolating every column. Regression for two
// out-of-bounds scans: an empty input table zeroes the intersection
// capacity but the scan wrote position entries before discovering the
// exhaustion, and a duplicate-free shortest table could be fully
// consumed with the outer scan still running.
func TestAlignSortedIntoMatchesAlign(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 20000; iter++ {
		tables := make([]*Table, 1+rng.Intn(4))
		for j := range tables {
			tables[j] = randSortedTable(rng, fmt.Sprintf("m%d", j))
		}
		want := Align(tables...)
		got := AlignSortedInto(nil, tables...)
		if len(got.Timestamps) != len(want.Timestamps) {
			t.Fatalf("iter %d: %d common timestamps, want %d (axes %v)",
				iter, len(got.Timestamps), len(want.Timestamps), axes(tables))
		}
		for i := range want.Timestamps {
			if got.Timestamps[i] != want.Timestamps[i] {
				t.Fatalf("iter %d: timestamp %d differs (axes %v)", iter, i, axes(tables))
			}
		}
		sameColumns := func(stage string) {
			for _, m := range want.Order {
				for i := range want.Timestamps {
					if math.Float64bits(got.Columns[m][i]) != math.Float64bits(want.Columns[m][i]) {
						t.Fatalf("iter %d %s: column %s row %d = %v, want %v (axes %v)",
							iter, stage, m, i, got.Columns[m][i], want.Columns[m][i], axes(tables))
					}
				}
			}
		}
		sameColumns("aligned")
		if g, w := got.InterpolateAll(), want.InterpolateAll(); g != w {
			t.Fatalf("iter %d: interpolation filled %d cells, want %d", iter, g, w)
		}
		sameColumns("interpolated")
	}
}

func axes(tables []*Table) []string {
	out := make([]string, len(tables))
	for i, tb := range tables {
		out[i] = fmt.Sprint(tb.Timestamps)
	}
	return out
}

// TestArenaFloatsChunks carves a cycle spanning several chunks, including
// a request larger than a chunk: the slices never overlap, and once the
// chunks exist a Reset cycle of the same shape allocates nothing.
func TestArenaFloatsChunks(t *testing.T) {
	sizes := []int{300, arenaChunkFloats - 100, 300, 3 * arenaChunkFloats, 7, 300}
	a := &Arena{}
	cycle := func() [][]float64 {
		a.Reset()
		out := make([][]float64, len(sizes))
		for i, n := range sizes {
			out[i] = a.Floats(n)
		}
		return out
	}
	got := cycle()
	for i, s := range got {
		if len(s) != sizes[i] || cap(s) != sizes[i] {
			t.Fatalf("slice %d: len %d cap %d, want %d", i, len(s), cap(s), sizes[i])
		}
		for j := range s {
			s[j] = float64(i)
		}
	}
	for i, s := range got {
		for _, v := range s {
			if v != float64(i) {
				t.Fatalf("slice %d overlaps another", i)
			}
		}
	}
	if n := testing.AllocsPerRun(5, func() {
		a.Reset()
		for _, n := range sizes {
			a.Floats(n)
		}
	}); n != 0 {
		t.Fatalf("a warm arena allocated %v times per cycle", n)
	}
}

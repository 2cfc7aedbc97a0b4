package features

import (
	"math"
	"math/rand"
	"testing"

	"prodigy/internal/timeseries"
)

// planTable builds a table of random, constant and single-spike columns,
// so plan extraction meets the degenerate inputs the extractors
// special-case. (Missing values never reach extraction: preprocessing
// interpolates them first.)
func planTable(rng *rand.Rand, metrics, n int) *timeseries.Table {
	ts := make([]int64, n)
	for i := range ts {
		ts[i] = int64(i)
	}
	tb := timeseries.NewTable(ts)
	for m := 0; m < metrics; m++ {
		col := make([]float64, n)
		for i := range col {
			switch m % 3 {
			case 0:
				col[i] = rng.NormFloat64() * 50
			case 1:
				col[i] = 7 // constant column
			case 2:
				if i == n/2 {
					col[i] = rng.ExpFloat64()
				}
			}
		}
		tb.AddColumn(string(rune('a'+m))+"::meminfo", col)
	}
	return tb
}

// TestPlanMatchesFullExtraction compiles plans from random selections and
// checks that plan extraction writes every selected index bit-identically
// to full ExtractTableInto, and never touches a cell outside the plan.
func TestPlanMatchesFullExtraction(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, c := range []*Catalog{Minimal(), Default()} {
		tb := planTable(rng, 6, 90)
		per := c.NumFeaturesPerSeries()
		width := tb.NumMetrics() * per
		full := make([]float64, width)
		c.ExtractTableInto(full, tb)
		for trial := 0; trial < 8; trial++ {
			k := 1 + rng.Intn(width/4)
			indices := rng.Perm(width)[:k]
			plan, err := c.Plan(indices, tb.NumMetrics())
			if err != nil {
				t.Fatal(err)
			}
			dst := make([]float64, width)
			for i := range dst {
				dst[i] = math.NaN()
			}
			ws := NewWorkspace()
			c.ExtractPlanInto(dst, tb, plan, ws)
			for _, i := range indices {
				if math.Float64bits(dst[i]) != math.Float64bits(full[i]) {
					t.Fatalf("tier %d trial %d: index %d = %v, full extraction %v", c.MaxTier, trial, i, dst[i], full[i])
				}
			}
			written := 0
			for _, v := range dst {
				if !math.IsNaN(v) {
					written++
				}
			}
			cellWidth := 0
			for _, ex := range plan.Extractors {
				for _, e := range ex {
					cellWidth += len(c.Extractors[e].Names)
				}
			}
			if written != cellWidth {
				t.Fatalf("tier %d trial %d: %d cells written, the plan covers %d", c.MaxTier, trial, written, cellWidth)
			}
			if plan.Cells() > k {
				t.Fatalf("plan runs %d cells for %d indices", plan.Cells(), k)
			}
		}
	}
}

// TestPlanShape pins the index → (metric, extractor) mapping on the
// block boundaries and the compile-time range check.
func TestPlanShape(t *testing.T) {
	c := Minimal()
	per := c.NumFeaturesPerSeries()
	last := len(c.Extractors) - 1
	plan, err := c.Plan([]int{0, per - 1, 2*per + c.offsets[last], 2 * per}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Metrics) != 2 || plan.Metrics[0] != 0 || plan.Metrics[1] != 2 {
		t.Fatalf("metrics %v, want [0 2]", plan.Metrics)
	}
	if got := plan.Extractors[0]; len(got) != 2 || got[0] != 0 || got[1] != last {
		t.Fatalf("metric 0 extractors %v, want [0 %d]", got, last)
	}
	if got := plan.Extractors[1]; len(got) != 2 || got[0] != 0 || got[1] != last {
		t.Fatalf("metric 2 extractors %v, want [0 %d]", got, last)
	}
	if plan.Cells() != 4 {
		t.Fatalf("cells %d, want 4", plan.Cells())
	}
	for _, bad := range []int{-1, 3 * per} {
		if _, err := c.Plan([]int{bad}, 3); err == nil {
			t.Fatalf("index %d accepted for a %d-wide space", bad, 3*per)
		}
	}
}

// Plan extraction is the per-request dashboard path: allocation-free
// once the workspace is warm, like ExtractSeriesInto.
func TestExtractPlanIntoZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	rng := rand.New(rand.NewSource(5))
	c := Default()
	tb := planTable(rng, 4, 60)
	width := tb.NumMetrics() * c.NumFeaturesPerSeries()
	plan, err := c.Plan(rng.Perm(width)[:40], tb.NumMetrics())
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, width)
	ws := NewWorkspace()
	c.ExtractPlanInto(dst, tb, plan, ws) // warm the workspace buffers
	if n := testing.AllocsPerRun(20, func() {
		c.ExtractPlanInto(dst, tb, plan, ws)
	}); n != 0 {
		t.Fatalf("ExtractPlanInto allocates %v/op after warmup, want 0", n)
	}
}

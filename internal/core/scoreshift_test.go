package core_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"prodigy/internal/core"
	"prodigy/internal/drift"
	"prodigy/internal/ensemble"
	"prodigy/internal/mat"
)

// TestScoreShiftBaselineLifecycle pins the baseline behind the
// score-distribution-shift alert: training stores the healthy training
// scores' sketch in the artifact, so the shift is evaluable as soon as
// Fit or FitEnsemble returns, and arming the drift monitor leaves the live
// sketch empty. Traffic from the training campaign compares clean;
// degenerate traffic, far outside the training range, is flagged.
func TestScoreShiftBaselineLifecycle(t *testing.T) {
	ds, _, _ := campaign(t, 53)
	healthy := ds.HealthyIndices()
	vaeP := core.New(quickConfig())
	if err := vaeP.Fit(ds, nil); err != nil {
		t.Fatal(err)
	}
	ensP := core.New(quickConfig())
	eCfg := ensemble.Config{
		Prefilter: "naive", PassFrac: 0.3, Fusion: ensemble.FusionRank,
		Members: []string{"vae", "lof"}, Seed: 53,
	}
	if err := ensP.FitEnsemble(ds, nil, eCfg, nil); err != nil {
		t.Fatal(err)
	}
	shifted := &mat.Matrix{Rows: ds.X.Rows, Cols: ds.X.Cols, Data: append([]float64(nil), ds.X.Data...)}
	for i := range shifted.Data {
		shifted.Data[i] = shifted.Data[i]*10 + 100
	}

	for _, tc := range []struct {
		name string
		p    *core.Prodigy
	}{{"vae", vaeP}, {"ensemble", ensP}} {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.p
			var total uint64
			for _, c := range p.Artifact().Baseline {
				total += c
			}
			if total != uint64(len(healthy)) {
				t.Fatalf("baseline holds %d scores, want one per healthy training row (%d)", total, len(healthy))
			}
			// Arming the drift monitor scores the healthy training rows
			// off the served detector. No live traffic yet: evaluable,
			// with no evidence of a shift.
			hx := ds.Subset(healthy).X
			mon, err := p.DriftMonitor(hx, hx.Rows, drift.Config{})
			if err != nil {
				t.Fatal(err)
			}
			stat, pv, n, ok := p.ScoreShift()
			if !ok || n != 0 || stat != 0 || pv != 1 {
				t.Fatalf("fresh deployment: stat=%g p=%g n=%d ok=%v, want 0/1/0/true", stat, pv, n, ok)
			}

			for i := 0; i < 3; i++ {
				p.Scores(ds.X)
			}
			_, pv, n, ok = p.ScoreShift()
			if !ok || n != uint64(3*ds.Len()) {
				t.Fatalf("campaign traffic: ok=%v n=%d, want %d", ok, n, 3*ds.Len())
			}
			if pv < 0.05 {
				t.Fatalf("campaign traffic flagged as shifted: p = %g", pv)
			}

			for i := 0; i < 6; i++ {
				p.Scores(shifted)
			}
			stat, pv, _, ok = p.ScoreShift()
			if !ok || pv > 0.01 || stat < 0.2 {
				t.Fatalf("degenerate traffic not flagged: stat=%g p=%g ok=%v", stat, pv, ok)
			}

			// The monitor's reference is exactly the served scores.
			mon.Observe(p.Scores(hx)...)
			if rep := mon.Check(); rep.KS != 0 {
				t.Fatalf("drift reference differs from the served scores: %v", rep)
			}
		})
	}
}

// TestScoreShiftBaselinePersists checks that Save→Load keeps the
// baseline, and that an artifact saved without one loads with its score
// shift not evaluable rather than reported as "no shift".
func TestScoreShiftBaselinePersists(t *testing.T) {
	ds, _, _ := campaign(t, 54)
	cfg := quickConfig()
	p := core.New(cfg)
	if err := p.Fit(ds, nil); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "m.json")
	if err := p.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := core.Load(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(loaded.Artifact().Baseline, p.Artifact().Baseline) {
		t.Fatal("Save→Load changed the baseline")
	}
	if _, _, _, ok := loaded.ScoreShift(); !ok {
		t.Fatal("loaded model's score shift not evaluable")
	}

	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(blob, &fields); err != nil {
		t.Fatal(err)
	}
	if _, ok := fields["baseline"]; !ok {
		t.Fatal("saved artifact has no baseline field")
	}
	delete(fields, "baseline")
	if blob, err = json.Marshal(fields); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	old, err := core.Load(path, cfg)
	if err != nil {
		t.Fatalf("artifact without a baseline does not load: %v", err)
	}
	old.Scores(ds.X)
	if stat, pv, n, ok := old.ScoreShift(); ok {
		t.Fatalf("artifact without a baseline: stat=%g p=%g n=%d evaluable", stat, pv, n)
	}
}

package ensemble_test

import (
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"prodigy/internal/ensemble"
	"prodigy/internal/mat"
	"prodigy/internal/obs"
	"prodigy/internal/pipeline"
	"prodigy/internal/vae"
)

// syntheticDataset builds a labeled feature dataset with a tight healthy
// cluster and clearly displaced anomalies — enough structure for every
// fleet member (and the chi-square selection) to separate the classes.
func syntheticDataset(t testing.TB, healthy, anomalous, cols int, seed int64) *pipeline.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := healthy + anomalous
	x := mat.New(n, cols)
	meta := make([]pipeline.SampleMeta, n)
	names := make([]string, cols)
	for c := range names {
		names[c] = "f" + string(rune('a'+c%26)) + string(rune('0'+c/26))
	}
	for i := 0; i < n; i++ {
		row := x.Row(i)
		for c := range row {
			row[c] = rng.NormFloat64()
		}
		meta[i] = pipeline.SampleMeta{JobID: int64(i), Component: 0, App: "synthetic", Anomaly: "none"}
		if i >= healthy {
			// Anomalies: strong shift on half the features.
			for c := 0; c < cols; c += 2 {
				row[c] += 4 + rng.Float64()
			}
			meta[i].Anomaly = "synthetic-shift"
			meta[i].Config = "shift 4"
			meta[i].Label = 1
		}
	}
	return &pipeline.Dataset{FeatureNames: names, X: x, Meta: meta}
}

// tinyVAE is a fast VAE config for the identity tests.
func tinyVAE(inputDim int, seed int64) vae.Config {
	return vae.Config{
		HiddenDims: []int{8}, LatentDim: 2, Activation: "tanh",
		LearningRate: 1e-2, BatchSize: 16, Epochs: 60, Beta: 1e-3,
		ClipNorm: 5, Seed: seed, InputDim: inputDim,
	}
}

func trainerCfg() pipeline.TrainerConfig {
	return pipeline.TrainerConfig{TopK: 8, ThresholdPercentile: 99, ScalerKind: "minmax"}
}

// TestPassthroughBitIdentity pins the cascade-off anchor: with the
// pre-filter disabled and the VAE as the only fleet member, the
// ensemble's scores and threshold are bit-identical to the solo VAE
// artifact trained through the standard ModelTrainer flow.
func TestPassthroughBitIdentity(t *testing.T) {
	ds := syntheticDataset(t, 96, 12, 10, 3)
	test := syntheticDataset(t, 40, 8, 10, 4)

	solo := &pipeline.ModelTrainer{
		Cfg: trainerCfg(),
		NewModel: func(in int) (pipeline.Model, error) {
			return pipeline.NewVAEModel(tinyVAE(in, 7))
		},
	}
	soloArt, err := solo.Train(ds, ds, nil)
	if err != nil {
		t.Fatal(err)
	}

	ensArt, err := ensemble.Train(ensemble.TrainOptions{
		Cfg:     ensemble.Config{Prefilter: "", Members: []string{"vae"}, Seed: 7},
		Trainer: trainerCfg(),
		NewMember: func(kind string, in int) (pipeline.Model, error) {
			return pipeline.NewVAEModel(tinyVAE(in, 7))
		},
		Train:  ds,
		Select: ds,
	})
	if err != nil {
		t.Fatal(err)
	}

	if soloArt.Threshold != ensArt.Threshold {
		t.Errorf("threshold drifted through the passthrough ensemble: %v vs %v", ensArt.Threshold, soloArt.Threshold)
	}
	soloDet, err := soloArt.Detector()
	if err != nil {
		t.Fatal(err)
	}
	ensDet, err := ensArt.Detector()
	if err != nil {
		t.Fatal(err)
	}
	want := soloDet.Scores(test.X)
	got := ensDet.Scores(test.X)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: passthrough ensemble score %v != solo VAE score %v", i, got[i], want[i])
		}
	}
}

// cheapCascade trains a full cascade over cheap deterministic members —
// the harness for determinism, scheduler and round-trip tests.
func cheapCascade(t testing.TB, members []string, fusion ensemble.Fusion) (*pipeline.Artifact, *pipeline.Dataset) {
	t.Helper()
	ds := syntheticDataset(t, 96, 12, 10, 5)
	art, err := ensemble.Train(ensemble.TrainOptions{
		Cfg:     ensemble.Config{Prefilter: "iforest", PassFrac: 0.05, Fusion: fusion, Members: members, Seed: 11},
		Trainer: trainerCfg(),
		Train:   ds,
		Select:  ds,
	})
	if err != nil {
		t.Fatal(err)
	}
	return art, syntheticDataset(t, 160, 40, 10, 6)
}

// TestCascadeScoreBands checks the cascade's score semantics: cleared
// rows live strictly below 1, passed rows in [1, 2], and the calibrated
// pre-filter clears the bulk of a mostly-normal stream while anomalies
// still cross the decision threshold.
func TestCascadeScoreBands(t *testing.T) {
	art, test := cheapCascade(t, []string{"naive", "kmeans"}, ensemble.FusionRank)
	det, err := art.Detector()
	if err != nil {
		t.Fatal(err)
	}
	preds, scores := det.Predict(test.X)
	cleared, passed := 0, 0
	detected, anomalies := 0, 0
	for i, s := range scores {
		switch {
		case s < 1:
			cleared++
		case s <= 2:
			passed++
		default:
			t.Fatalf("row %d: score %v outside the cascade's [0, 2] range", i, s)
		}
		if test.Meta[i].Label == 1 {
			anomalies++
			detected += preds[i]
		}
	}
	if cleared == 0 || passed == 0 {
		t.Fatalf("degenerate cascade: %d cleared, %d passed", cleared, passed)
	}
	healthyRows := len(scores) - anomalies
	// The pre-filter is calibrated to pass ≤ ~5% of held-out normal rows;
	// allow slack for distribution shift between train and test draws.
	normalPass := 0
	for i, s := range scores {
		if test.Meta[i].Label == 0 && s >= 1 {
			normalPass++
		}
	}
	if frac := float64(normalPass) / float64(healthyRows); frac > 0.25 {
		t.Errorf("pre-filter passed %.0f%% of normal rows, want ≤25%%", frac*100)
	}
	if frac := float64(detected) / float64(anomalies); frac < 0.75 {
		t.Errorf("cascade detected only %d/%d anomalies", detected, anomalies)
	}
}

// TestFusionDeterminism pins per-row determinism of the fused scores
// across the detector's worker fan-out (GOMAXPROCS 1, 2 and 8 produce
// different batch chunkings) and across fleet-member completion orders.
func TestFusionDeterminism(t *testing.T) {
	art, test := cheapCascade(t, []string{"naive", "kmeans", "lof"}, ensemble.FusionRank)
	det, err := art.Detector()
	if err != nil {
		t.Fatal(err)
	}
	want := det.Scores(test.X)

	for _, workers := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(workers)
		got := det.Scores(test.X)
		runtime.GOMAXPROCS(prev)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d row %d: score %v != %v", workers, i, got[i], want[i])
			}
		}
	}

	// Completion order: delay each member in turn so every member finishes
	// last at least once.
	ens, ok := ensemble.Of(art)
	if !ok {
		t.Fatal("artifact does not carry a live ensemble")
	}
	for _, slow := range []string{"naive", "kmeans", "lof"} {
		ens.SetMemberDelayForTest(func(kind string) {
			if kind == slow {
				time.Sleep(2 * time.Millisecond)
			}
		})
		got := det.Scores(test.X)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("slow=%s row %d: score %v != %v", slow, i, got[i], want[i])
			}
		}
	}
	ens.SetMemberDelayForTest(nil)
}

// TestFusionRules checks the fusion algebra on one fitted fleet: max
// fusion dominates rank-average fusion row for row, and a weighted
// fusion with all weight on one member reproduces that member's rank
// transform exactly.
func TestFusionRules(t *testing.T) {
	ds := syntheticDataset(t, 96, 12, 10, 5)
	test := syntheticDataset(t, 60, 20, 10, 8)

	build := func(fusion ensemble.Fusion, weights []float64) *ensemble.Ensemble {
		t.Helper()
		kinds := []string{"naive", "kmeans"}
		models := make([]pipeline.Model, len(kinds))
		for i, k := range kinds {
			m, err := pipeline.NewModelOfKind(k, 11)
			if err != nil {
				t.Fatal(err)
			}
			models[i] = m
		}
		e, err := ensemble.New(ensemble.Config{
			Members: kinds, Weights: weights, Fusion: fusion, PassFrac: 0.05, Seed: 11,
		}, models)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.FitHealthy(ds.X); err != nil {
			t.Fatal(err)
		}
		return e
	}

	rank := build(ensemble.FusionRank, nil).Scores(test.X)
	max := build(ensemble.FusionMax, nil).Scores(test.X)
	naiveOnly := build(ensemble.FusionWeighted, []float64{1, 0}).Scores(test.X)
	for i := range rank {
		if max[i] < rank[i] {
			t.Fatalf("row %d: max fusion %v below rank fusion %v", i, max[i], rank[i])
		}
	}
	// With all weight on the first member, the weighted fusion must match
	// that member's midrank empirical CDF exactly — computed here from
	// scratch against an independently fitted copy of the same model.
	ref, err := pipeline.NewModelOfKind("naive", 11)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.FitHealthy(ds.X); err != nil {
		t.Fatal(err)
	}
	trainScores := append([]float64(nil), ref.Scores(ds.X)...)
	sort.Float64s(trainScores)
	refScores := ref.Scores(test.X)
	for i := range naiveOnly {
		if want := midrankCDF(trainScores, refScores[i]); naiveOnly[i] != want {
			t.Fatalf("row %d: weighted[1,0] fusion %v != naive midrank CDF %v", i, naiveOnly[i], want)
		}
	}
}

// midrankCDF mirrors the package's documented rank transform:
// (#below + #at-or-below) / 2n over the sorted reference.
func midrankCDF(ref []float64, v float64) float64 {
	lo := sort.SearchFloat64s(ref, v)
	hi := sort.Search(len(ref), func(i int) bool { return ref[i] > v })
	return (float64(lo) + float64(hi)) / (2 * float64(len(ref)))
}

// TestArtifactRoundTrip saves the cascade artifact to disk, loads it
// back and checks the rehydrated detector scores bit-identically —
// fleet members, pre-filter, margin and rank references all survive the
// JSON round-trip.
func TestArtifactRoundTrip(t *testing.T) {
	art, test := cheapCascade(t, []string{"naive", "kmeans"}, ensemble.FusionRank)
	det, err := art.Detector()
	if err != nil {
		t.Fatal(err)
	}
	want := det.Scores(test.X)

	path := filepath.Join(t.TempDir(), "ensemble.json")
	if err := art.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := pipeline.LoadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.ModelKind != "ensemble" {
		t.Fatalf("loaded kind %q", loaded.ModelKind)
	}
	det2, err := loaded.Detector()
	if err != nil {
		t.Fatal(err)
	}
	got := det2.Scores(test.X)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: loaded score %v != original %v", i, got[i], want[i])
		}
	}
	ens, ok := ensemble.Of(loaded)
	if !ok {
		t.Fatal("loaded artifact does not expose the ensemble")
	}
	if got := len(ens.ActiveMembers()); got != 2 {
		t.Fatalf("loaded cascade has %d active members, want 2 (active flags must reset on load)", got)
	}
}

// TestBudgetSchedulerShedRestore drives the scheduler through a full
// shed/restore cycle: a tiny budget sheds the most expensive members
// one per batch down to a single survivor (never zero), lifting the
// budget restores the whole fleet, and queue pressure alone sheds too.
func TestBudgetSchedulerShedRestore(t *testing.T) {
	art, test := cheapCascade(t, []string{"naive", "kmeans", "lof"}, ensemble.FusionRank)
	det, err := art.Detector()
	if err != nil {
		t.Fatal(err)
	}
	ens, ok := ensemble.Of(art)
	if !ok {
		t.Fatal("no live ensemble")
	}
	score := func() { det.Scores(test.X) }

	score()
	if got := len(ens.ActiveMembers()); got != 3 {
		t.Fatalf("fresh cascade has %d active members, want 3", got)
	}

	// 1 ns/row is unmeetable: each batch sheds the most expensive member
	// until one is left.
	ens.SetBudgetNs(1)
	for i := 0; i < 4; i++ {
		score()
	}
	active := ens.ActiveMembers()
	if len(active) != 1 {
		t.Fatalf("after shedding, active = %v, want exactly one survivor", active)
	}
	if got := ensemble.ModelsActiveForTest(); got != 1 {
		t.Fatalf("ensemble_models_active = %v after shed, want 1", got)
	}
	// The most expensive member (LOF by ledger or prior) must be gone.
	for _, k := range active {
		if k == "lof" {
			t.Error("lof survived a 1ns budget; shed order should drop the most expensive first")
		}
	}
	// Shed state must still answer scoring with in-band scores.
	for _, s := range det.Scores(test.X) {
		if s < 0 || s > 2 {
			t.Fatalf("score %v out of band while shed", s)
		}
	}

	// Budget off, no probe: the fleet restores wholesale.
	ens.SetBudgetNs(0)
	score()
	if got := len(ens.ActiveMembers()); got != 3 {
		t.Fatalf("after budget lift, %d active members, want 3", got)
	}
	if got := ensemble.ModelsActiveForTest(); got != 3 {
		t.Fatalf("ensemble_models_active = %v after restore, want 3", got)
	}

	// Queue pressure without any ns budget: a backed-up tier sheds, a calm
	// tier restores one member per batch.
	var queued atomic.Int64
	ens.SetLoadProbe(func() (int, int) { return int(queued.Load()), 100 })
	queued.Store(90)
	score()
	if got := len(ens.ActiveMembers()); got != 2 {
		t.Fatalf("under queue pressure, %d active members, want 2", got)
	}
	queued.Store(0)
	score()
	if got := len(ens.ActiveMembers()); got != 3 {
		t.Fatalf("after queue drained, %d active members, want 3", got)
	}
	ens.SetLoadProbe(nil)

	st := ens.Status()
	if st.Prefilter != "iforest" || len(st.Members) != 3 {
		t.Fatalf("status = %+v", st)
	}
}

// TestSchedulerReadsPrefilterCost pins the budget scheduler's pre-filter
// term to the pre-filter's own ledger entry: after scoring, and after
// more cost is charged to it, the estimate equals the ns/row the ledger
// reports for the pre-filter's kind — also for a cascade rehydrated from
// its JSON form.
func TestSchedulerReadsPrefilterCost(t *testing.T) {
	art, test := cheapCascade(t, []string{"naive", "kmeans"}, ensemble.FusionRank)
	det, err := art.Detector()
	if err != nil {
		t.Fatal(err)
	}
	ens, ok := ensemble.Of(art)
	if !ok {
		t.Fatal("no live ensemble")
	}
	loaded, err := pipeline.DecodeModel("ensemble", art.Model)
	if err != nil {
		t.Fatal(err)
	}
	kind := ens.Cfg.Prefilter
	ledgerNs := func() float64 {
		for _, row := range obs.LedgerSnapshot() {
			if row.Model == kind {
				return row.NsPerRow
			}
		}
		return 0
	}
	det.Scores(test.X)
	for i, charge := range []time.Duration{0, 10 * time.Millisecond} {
		obs.CostFor(kind).Record(1000, charge)
		want := ledgerNs()
		if want <= 0 {
			t.Fatalf("step %d: ledger has no %s cost after scoring", i, kind)
		}
		for name, e := range map[string]*ensemble.Ensemble{"trained": ens, "rehydrated": loaded.(*ensemble.Ensemble)} {
			if got := e.PrefilterNsForTest(); got != want {
				t.Errorf("step %d, %s cascade: scheduler's pre-filter estimate %v ns/row, ledger says %v", i, name, got, want)
			}
		}
	}
}

// TestOverlappingBatchesKeepOneMemberSet runs two detector batches at a
// time, each fanned out across four workers, while LOF's scheduler flag
// flips continuously. Every batch must fuse all of its chunks over one
// member set: its scores equal, as a whole, either the full fleet's or
// the LOF-shed fleet's — never a mix of the two.
func TestOverlappingBatchesKeepOneMemberSet(t *testing.T) {
	art, test := cheapCascade(t, []string{"naive", "kmeans", "lof"}, ensemble.FusionRank)
	det, err := art.Detector()
	if err != nil {
		t.Fatal(err)
	}
	ens, ok := ensemble.Of(art)
	if !ok {
		t.Fatal("no live ensemble")
	}
	// A probe between the low- and high-water marks holds the scheduler
	// still, so the flips below are the only membership changes.
	ens.SetLoadProbe(func() (int, int) { return 30, 100 })
	defer ens.SetLoadProbe(nil)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))

	full := det.Scores(test.X)
	ens.ForceActiveForTest("lof", false)
	shed := det.Scores(test.X)
	ens.ForceActiveForTest("lof", true)
	differ := 0
	for i := range full {
		if full[i] != shed[i] {
			differ++
		}
	}
	if differ < 2 {
		t.Fatalf("shedding lof changed %d scores; the test cannot tell member sets apart", differ)
	}
	same := func(a, b []float64) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}

	var stop atomic.Bool
	flipped := make(chan struct{})
	go func() {
		defer close(flipped)
		for on := false; !stop.Load(); on = !on {
			ens.ForceActiveForTest("lof", on)
			runtime.Gosched()
		}
	}()
	const callers, batches = 2, 40
	mixed := make(chan int, callers*batches)
	done := make(chan struct{})
	for c := 0; c < callers; c++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for b := 0; b < batches; b++ {
				got := det.Scores(test.X)
				if !same(got, full) && !same(got, shed) {
					mixed <- b
				}
			}
		}()
	}
	for c := 0; c < callers; c++ {
		<-done
	}
	stop.Store(true)
	<-flipped
	ens.ForceActiveForTest("lof", true)
	if n := len(mixed); n > 0 {
		t.Fatalf("%d of %d batches fused chunks over different member sets", n, callers*batches)
	}
}

package experiments

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"prodigy/internal/features"
	"prodigy/internal/pipeline"
)

// quickCampaign returns a small, fast campaign config for tests.
func quickCampaign(system string, seed int64) CampaignConfig {
	var cfg CampaignConfig
	if system == "eclipse" {
		cfg = EclipseCampaign(0.3, seed)
		cfg.JobsPerApp = 3
	} else {
		cfg = VoltaCampaign(0.3, seed)
		cfg.JobsPerApp = 2
	}
	cfg.Duration = 150
	cfg.Catalog = features.Minimal()
	return cfg
}

func TestCampaignValidate(t *testing.T) {
	bad := []CampaignConfig{
		{System: "nope"},
		{System: "eclipse", JobsPerApp: 0},
		{System: "eclipse", JobsPerApp: 1, NodesPerJob: 0},
		{System: "eclipse", JobsPerApp: 1, NodesPerJob: 1, Duration: 0},
	}
	for i, cfg := range bad {
		cfg := cfg
		if err := cfg.Validate(); err == nil {
			t.Fatalf("config %d should be invalid", i)
		}
	}
	good := quickCampaign("volta", 1)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(good.Apps) == 0 || good.TrimSeconds == 0 || good.Injectors == nil {
		t.Fatal("Validate should fill defaults")
	}
}

func TestGenerateProducesLabeledCampaign(t *testing.T) {
	cfg := quickCampaign("eclipse", 1)
	camp, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds := camp.Dataset
	// Generate validates a copy; camp.Cfg carries the filled defaults.
	wantSamples := len(camp.Cfg.Apps) * cfg.JobsPerApp * cfg.NodesPerJob
	if ds.Len() != wantSamples {
		t.Fatalf("%d samples, want %d", ds.Len(), wantSamples)
	}
	if len(ds.AnomalousIndices()) == 0 || len(ds.HealthyIndices()) == 0 {
		t.Fatal("campaign must contain both classes")
	}
	if len(camp.Store.Jobs()) != len(camp.Cfg.Apps)*cfg.JobsPerApp {
		t.Fatalf("store has %d jobs", len(camp.Store.Jobs()))
	}
	// Eclipse campaigns are anomaly-heavy, per §5.4.2.
	if r := AnomalyRatio(ds); r < 0.5 {
		t.Fatalf("eclipse anomaly ratio %v, want anomaly-heavy", r)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := quickCampaign("volta", 7)
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Dataset.Len() != b.Dataset.Len() {
		t.Fatal("sample counts differ")
	}
	for i := range a.Dataset.Meta {
		if a.Dataset.Meta[i] != b.Dataset.Meta[i] {
			t.Fatalf("meta %d differs", i)
		}
	}
	for i, v := range a.Dataset.X.Data {
		if b.Dataset.X.Data[i] != v {
			t.Fatal("feature values differ between identical campaigns")
		}
	}
}

func TestExactAnomalousJobs(t *testing.T) {
	cfg := quickCampaign("eclipse", 2)
	cfg.Apps = []string{"empire"}
	cfg.JobsPerApp = 5
	cfg.AnomalousJobs = 2
	cfg.AnomalousJobFrac = 0 // must be overridden by the exact count
	camp, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	anomJobs := map[int64]bool{}
	for _, m := range camp.Dataset.Meta {
		if m.Label == pipeline.Anomalous {
			anomJobs[m.JobID] = true
		}
	}
	if len(anomJobs) != 2 {
		t.Fatalf("%d anomalous jobs, want exactly 2", len(anomJobs))
	}
}

func TestSplitCapped(t *testing.T) {
	cfg := quickCampaign("eclipse", 3)
	camp, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	train, test := SplitCapped(camp.Dataset, 0.2, 0.1, rng) // §5.4.2: 20–80, training anomalies ≤ 10%
	if train.Len()+test.Len() != camp.Dataset.Len() {
		t.Fatal("split loses samples")
	}
	if r := AnomalyRatio(train); r > 0.11 {
		t.Fatalf("train anomaly ratio %v exceeds the 10%% cap", r)
	}
	// The displaced anomalies make the test set anomaly-heavy (the paper's
	// 90% Eclipse test ratio).
	if r := AnomalyRatio(test); r < 0.5 {
		t.Fatalf("test anomaly ratio %v, want heavy", r)
	}
}

// TestFigure5Shape asserts the paper's qualitative result on a small
// campaign: Prodigy wins, and the ML methods beat the heuristic floor.
func TestFigure5Shape(t *testing.T) {
	cfg := quickCampaign("eclipse", 5)
	res, err := RunFigure5(cfg, Quick, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Methods[0].Method != "Prodigy" {
		t.Fatalf("best method is %s, want Prodigy", res.Methods[0].Method)
	}
	prodigyF1 := res.F1Of("Prodigy")
	if prodigyF1 < 0.85 {
		t.Fatalf("Prodigy F1 = %v", prodigyF1)
	}
	if usad := res.F1Of("USAD"); usad <= res.F1Of("Majority Label Prediction") {
		t.Fatalf("USAD %v should beat the majority floor", usad)
	}
	if res.F1Of("no-such") != -1 {
		t.Fatal("unknown method should be -1")
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "Figure 5") || !strings.Contains(buf.String(), "Prodigy") {
		t.Fatalf("print output: %q", buf.String())
	}
}

// TestFigure6Shape asserts the sample-efficiency trend: more healthy
// training samples never hurt much, and the largest budget beats the
// smallest.
func TestFigure6Shape(t *testing.T) {
	cfg := Figure6Campaign(150, 6)
	cfg.JobsPerApp = 4 // 16 jobs total
	cfg.AnomalousJobs = 8
	cfg.Catalog = features.Minimal()
	res, err := RunFigure6(cfg, Quick, []int{4, 16, 28}, 3, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("%d points", len(res.Points))
	}
	first := res.Points[0]
	last := res.Points[len(res.Points)-1]
	if last.MeanF1 < first.MeanF1-0.05 {
		t.Fatalf("F1 should improve with samples: %v -> %v", first.MeanF1, last.MeanF1)
	}
	if last.MeanF1 < 0.8 {
		t.Fatalf("F1 with max samples = %v", last.MeanF1)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "Figure 6") {
		t.Fatal("print output missing header")
	}
}

func TestInventoryPrints(t *testing.T) {
	var buf bytes.Buffer
	if err := PrintTable1(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, app := range []string{"LAMMPS", "HACC", "Kripke", "MiniAMR"} {
		if !strings.Contains(out, app) {
			t.Errorf("Table 1 output missing %s", app)
		}
	}
	buf.Reset()
	PrintTable2(&buf)
	out = buf.String()
	for _, a := range []string{"cpuoccupy", "cachecopy", "membw", "memleak", "-u 100%", "-s 10M -p 1"} {
		if !strings.Contains(out, a) {
			t.Errorf("Table 2 output missing %s", a)
		}
	}
}

func TestAnomalyRatioEmpty(t *testing.T) {
	if AnomalyRatio(&pipeline.Dataset{}) != 0 {
		t.Fatal("empty ratio should be 0")
	}
}

// TestEmpireShape runs the in-the-wild experiment and asserts the paper's
// outcome band: a clear majority of the degraded samples detected from 28
// healthy training samples (paper: 7/8).
func TestEmpireShape(t *testing.T) {
	res, err := RunEmpire(Quick, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.TrainSamples != 28 || res.TestSamples != 8 {
		t.Fatalf("split %d/%d, want 28/8", res.TrainSamples, res.TestSamples)
	}
	if res.Detected < 6 {
		t.Fatalf("detected %d/8", res.Detected)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "Empire") {
		t.Fatal("print output")
	}
}

// TestFigure7Shape asserts the CoMTE scenario: the memleak job's injected
// nodes are flagged and the explanation contains memory-subsystem metrics.
func TestFigure7Shape(t *testing.T) {
	res, err := RunFigure7(Quick, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Predictions) == 0 {
		t.Fatal("no predictions")
	}
	if res.Explained < 0 || len(res.Explanation) == 0 {
		t.Fatalf("no explanation: %+v", res)
	}
	if !res.MemoryMetric {
		t.Fatalf("explanation lacks memory metrics: %v", res.Explanation)
	}
	if res.ScoreAfter >= res.ScoreBefore {
		t.Fatal("substitution must reduce the score")
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "CoMTE") {
		t.Fatal("print output")
	}
}

// TestHeteroShape asserts the §7 heterogeneous extension end to end.
func TestHeteroShape(t *testing.T) {
	res, err := RunHetero(Quick, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, class := range []string{"cpu", "gpu"} {
		conf, ok := res.Classes[class]
		if !ok {
			t.Fatalf("class %s missing", class)
		}
		if f1 := conf.MacroF1(); f1 < 0.8 {
			t.Fatalf("%s macro F1 = %v", class, f1)
		}
	}
}

// TestInferenceMeasurement checks the timing harness produces plausible
// numbers at quick scale.
func TestInferenceMeasurement(t *testing.T) {
	res, err := RunInference("volta", Quick, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumSamples != 1458 {
		t.Fatalf("batch = %d", res.NumSamples)
	}
	if res.AvgSeconds <= 0 || res.AvgSeconds > 30 {
		t.Fatalf("avg seconds = %v", res.AvgSeconds)
	}
	if _, err := RunInference("nope", Quick, 1, 1); err == nil {
		t.Fatal("unknown system should error")
	}
}

// TestAblationUnsupervisedShape asserts the X1 extension: unsupervised
// training with trimming stays within reach of the supervised reference.
func TestAblationUnsupervisedShape(t *testing.T) {
	res, err := RunAblationUnsupervised(Quick, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("%d points", len(res.Points))
	}
	byName := map[string]float64{}
	for _, p := range res.Points {
		byName[p.Name] = p.F1
	}
	if byName["supervised-selection (paper)"] < 0.8 {
		t.Fatalf("supervised reference = %v", byName["supervised-selection (paper)"])
	}
	if byName["unsupervised, trim 10%"] < 0.6 {
		t.Fatalf("unsupervised trimmed = %v", byName["unsupervised, trim 10%"])
	}
}

// TestTable3Shape runs the thinned grid and asserts the lr×epochs coupling
// the paper's grid embodies: the best Prodigy point uses the larger epoch
// budget.
func TestTable3Shape(t *testing.T) {
	res, err := RunTable3(Quick, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Prodigy) != 8 || len(res.USAD) != 16 {
		t.Fatalf("grid sizes %d/%d", len(res.Prodigy), len(res.USAD))
	}
	// More epochs should not hurt: the best long-budget point is at least
	// as good as the best short-budget point (the argmax identity is
	// seed-dependent; the direction is not).
	bestAt := func(epochs float64) float64 {
		best := -1.0
		for _, p := range res.Prodigy {
			if p.Params["epochs"] == epochs && p.F1 > best {
				best = p.F1
			}
		}
		return best
	}
	if bestAt(2400) < bestAt(400)-0.05 {
		t.Fatalf("2400-epoch best %v clearly below 400-epoch best %v", bestAt(2400), bestAt(400))
	}
	if Best(res.Prodigy).F1 < Best(res.USAD).F1-0.1 {
		t.Fatalf("Prodigy best %v far below USAD best %v", Best(res.Prodigy).F1, Best(res.USAD).F1)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	out := buf.String()
	if !strings.Contains(out, "Table 3") || !strings.Contains(out, "*") {
		t.Fatalf("print output: %q", out)
	}
}

// TestAblationThresholdMonotoneish checks that higher fixed percentiles do
// not lose to lower ones on an anomaly-heavy test set (FPs dominate the
// penalty at low percentiles).
func TestAblationThresholdShape(t *testing.T) {
	res, err := RunAblationThreshold(Quick, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 5 {
		t.Fatalf("%d points", len(res.Points))
	}
	first := res.Points[0].F1                // percentile 90
	last := res.Points[len(res.Points)-1].F1 // percentile 100
	if last < first-0.05 {
		t.Fatalf("percentile 100 (%v) should not lose badly to 90 (%v)", last, first)
	}
	for _, p := range res.Points {
		if p.F1 < 0.5 {
			t.Fatalf("%s F1 = %v", p.Name, p.F1)
		}
	}
}

// TestAblationKMeansShape verifies §5.3's rejection: K-means trails the
// Prodigy reference on the same split.
func TestAblationKMeansShape(t *testing.T) {
	res, err := RunAblationKMeans(Quick, 7)
	if err != nil {
		t.Fatal(err)
	}
	var ref, bestKM float64
	for _, p := range res.Points {
		if p.Name == "Prodigy (reference)" {
			ref = p.F1
		} else if p.F1 > bestKM {
			bestKM = p.F1
		}
	}
	if ref <= bestKM {
		t.Fatalf("Prodigy %v should beat best K-means %v", ref, bestKM)
	}
}

// F1Of returns the mean F1 of a method, or -1 when absent.
func (r *Figure5Result) F1Of(method string) float64 {
	for _, m := range r.Methods {
		if m.Method == method {
			return m.Mean
		}
	}
	return -1
}

package diagnose_test

import (
	"fmt"
	"testing"

	"prodigy/internal/cluster"
	"prodigy/internal/diagnose"
	"prodigy/internal/dsos"
	"prodigy/internal/features"
	"prodigy/internal/hpas"
	"prodigy/internal/ldms"

	"prodigy/internal/pipeline"
)

// typedCampaign builds a dataset with three anomaly types plus healthy
// runs.
func typedCampaign(t *testing.T, seed int64) *pipeline.Dataset {
	t.Helper()
	sys := cluster.NewSystem("test", 4, cluster.EclipseNode(), 0)
	store := dsos.NewStore()
	builder := pipeline.NewDatasetBuilder(store)
	builder.Gen.TrimSeconds = 20
	builder.Pipe.Catalog = features.Minimal()

	submit := func(inj hpas.Injector) {
		job, err := sys.Submit("lammps", 4, 140, seed)
		if err != nil {
			t.Fatal(err)
		}
		truth := map[int][2]string{}
		if inj != nil {
			for _, n := range job.Nodes {
				job.Injectors[n] = inj
				truth[n] = [2]string{inj.Name(), inj.Config()}
			}
		}
		sys.CollectJob(job, ldms.CollectConfig{DropProb: 0.005, Seed: seed + job.ID}, store)
		builder.AddJob(job.ID, "lammps", truth)
		if err := sys.Complete(job.ID); err != nil {
			t.Fatal(err)
		}
	}
	submit(nil)
	submit(nil)
	for i := 0; i < 2; i++ {
		submit(hpas.Memleak{SizeMB: 10, Period: 0.05})
		submit(hpas.CPUOccupy{Utilization: 1})
		submit(hpas.Membw{SizeKB: 32})
	}
	ds, err := builder.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestClassifierDiagnosesTypes(t *testing.T) {
	ds := typedCampaign(t, 51)
	clf, err := diagnose.New(ds, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := clf.Types(); len(got) != 3 {
		t.Fatalf("types = %v", got)
	}
	// Self-accuracy on the labeled pool must be near perfect (k=3 over 8
	// exemplars per type).
	acc, err := accuracy(clf, ds)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.9 {
		t.Fatalf("diagnosis accuracy = %v", acc)
	}
}

func TestClassifierGeneralizesToFreshRuns(t *testing.T) {
	train := typedCampaign(t, 52)
	test := typedCampaign(t, 99) // different seed: unseen runs
	clf, err := diagnose.New(train, 3)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := accuracy(clf, test)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.8 {
		t.Fatalf("held-out diagnosis accuracy = %v", acc)
	}
}

func TestDiagnosisConfidence(t *testing.T) {
	ds := typedCampaign(t, 53)
	clf, err := diagnose.New(ds, 3)
	if err != nil {
		t.Fatal(err)
	}
	idx := ds.AnomalousIndices()[0]
	d, err := clf.Classify(ds.X.Row(idx))
	if err != nil {
		t.Fatal(err)
	}
	if d.Confidence < 0.34 || d.Confidence > 1 {
		t.Fatalf("confidence = %v", d.Confidence)
	}
	total := 0.0
	for _, v := range d.Votes {
		total += v
	}
	if total < 0.99 || total > 1.01 {
		t.Fatalf("votes sum to %v", total)
	}
}

func TestClassifierValidation(t *testing.T) {
	ds := typedCampaign(t, 54)
	if _, err := diagnose.New(ds, 0); err == nil {
		t.Fatal("k=0 should error")
	}
	healthyOnly := ds.Subset(ds.HealthyIndices())
	if _, err := diagnose.New(healthyOnly, 3); err == nil {
		t.Fatal("no anomalies should error")
	}
	// Single-type pool cannot diagnose.
	oneType := ds.Subset(ds.IndicesWhere(func(m pipeline.SampleMeta) bool { return m.Anomaly == "memleak" }))
	if _, err := diagnose.New(oneType, 3); err == nil {
		t.Fatal("single-type pool should error")
	}
	clf, err := diagnose.New(ds, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clf.Classify(make([]float64, 3)); err == nil {
		t.Fatal("width mismatch should error")
	}
}

// accuracy evaluates a classifier on the labeled anomalous samples of ds.
func accuracy(c *diagnose.Classifier, ds *pipeline.Dataset) (float64, error) {
	idx := ds.AnomalousIndices()
	if len(idx) == 0 {
		return 0, fmt.Errorf("diagnose: no anomalous samples to evaluate on")
	}
	correct := 0
	for _, i := range idx {
		d, err := c.Classify(ds.X.Row(i))
		if err != nil {
			return 0, err
		}
		if d.Type == ds.Meta[i].Anomaly {
			correct++
		}
	}
	return float64(correct) / float64(len(idx)), nil
}

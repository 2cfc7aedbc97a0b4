package core_test

import (
	"testing"

	"prodigy/internal/cluster"
	"prodigy/internal/core"
	"prodigy/internal/dsos"
	"prodigy/internal/features"
	"prodigy/internal/hpas"
	"prodigy/internal/ldms"
	"prodigy/internal/pipeline"
)

// heteroCampaign simulates a mixed CPU/GPU system: CPU jobs plus GPU jobs,
// one GPU job with a gpucontend anomaly and one CPU job with cpuoccupy.
func heteroCampaign(t *testing.T, seed int64) (map[string]*pipeline.Dataset, *dsos.Store, int64, int64) {
	t.Helper()
	sys := cluster.NewHeterogeneousSystem("mixed", 8, cluster.EclipseNode(), 8, cluster.GPUNode())
	store := dsos.NewStore()
	builder := pipeline.NewDatasetBuilder(store)
	builder.Gen.TrimSeconds = 20
	builder.Pipe.Catalog = features.Minimal()

	var anomGPUJob, anomCPUJob int64
	submit := func(app string, inj hpas.Injector) int64 {
		job, err := sys.Submit(app, 4, 140, seed)
		if err != nil {
			t.Fatal(err)
		}
		truth := map[int][2]string{}
		if inj != nil {
			for _, n := range job.Nodes[:2] {
				job.Injectors[n] = inj
				truth[n] = [2]string{inj.Name(), inj.Config()}
			}
		}
		sys.CollectJob(job, ldms.CollectConfig{DropProb: 0.01, Seed: seed + job.ID}, store)
		builder.AddJob(job.ID, app, truth)
		if err := sys.Complete(job.ID); err != nil {
			t.Fatal(err)
		}
		return job.ID
	}
	for i := 0; i < 3; i++ {
		submit("lammps", nil)
		submit("lammps-gpu", nil)
		submit("hacc-gpu", nil)
	}
	anomCPUJob = submit("lammps", hpas.CPUOccupy{Utilization: 1})
	anomGPUJob = submit("lammps-gpu", hpas.GPUContend{Utilization: 0.9, FBFrac: 0.3})

	parts, err := builder.BuildPartitioned()
	if err != nil {
		t.Fatal(err)
	}
	return parts, store, anomCPUJob, anomGPUJob
}

func TestGPUSchedulingPartitions(t *testing.T) {
	sys := cluster.NewHeterogeneousSystem("mixed", 4, cluster.EclipseNode(), 4, cluster.GPUNode())
	cpuJob, err := sys.Submit("lammps", 4, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range cpuJob.Nodes {
		if sys.SpecFor(n).GPUs > 0 {
			t.Fatalf("CPU app placed on GPU node %d", n)
		}
	}
	gpuJob, err := sys.Submit("lammps-gpu", 4, 50, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range gpuJob.Nodes {
		if sys.SpecFor(n).GPUs == 0 {
			t.Fatalf("GPU app placed on CPU node %d", n)
		}
	}
	// Both partitions are now full.
	if _, err := sys.Submit("lammps-gpu", 1, 50, 3); err == nil {
		t.Fatal("expected no free GPU nodes")
	}
	if _, err := sys.Submit("lammps", 1, 50, 3); err == nil {
		t.Fatal("expected no free CPU nodes")
	}
	if sys.SpecFor(gpuJob.Nodes[0]).GPUs == 0 {
		t.Fatal("GPU node spec must have GPUs")
	}
	if sys.SpecFor(cpuJob.Nodes[0]).GPUs != 0 {
		t.Fatal("CPU node spec must not have GPUs")
	}
}

func TestBuildPartitionedSplitsByClass(t *testing.T) {
	parts, _, _, _ := heteroCampaign(t, 31)
	cpu, gpu := parts["cpu"], parts["gpu"]
	if cpu == nil || gpu == nil {
		t.Fatalf("classes: %v", parts)
	}
	// 4 CPU jobs × 4 nodes; 7 GPU jobs × 4 nodes.
	if cpu.Len() != 16 || gpu.Len() != 28 {
		t.Fatalf("cpu=%d gpu=%d samples", cpu.Len(), gpu.Len())
	}
	// GPU datasets carry dcgm-derived features; CPU datasets must not.
	hasDcgm := func(ds *pipeline.Dataset) bool {
		for _, n := range ds.FeatureNames {
			if containsDcgm(n) {
				return true
			}
		}
		return false
	}
	if !hasDcgm(gpu) {
		t.Fatal("gpu dataset missing dcgm features")
	}
	if hasDcgm(cpu) {
		t.Fatal("cpu dataset has dcgm features")
	}
	if gpu.X.Cols <= cpu.X.Cols {
		t.Fatal("gpu feature space should be wider")
	}
}

func containsDcgm(s string) bool {
	for i := 0; i+6 <= len(s); i++ {
		if s[i:i+6] == "::dcgm" {
			return true
		}
	}
	return false
}

// TestHeteroDetection is the §7 heterogeneous end-to-end check: per-class
// models detect both the CPU anomaly and the GPU anomaly, routed by node
// class.
func TestHeteroDetection(t *testing.T) {
	parts, store, anomCPUJob, anomGPUJob := heteroCampaign(t, 32)
	h := core.NewHetero(map[string]core.Config{
		"cpu": quickConfig(),
		"gpu": quickConfig(),
	})
	if err := h.Fit(parts); err != nil {
		t.Fatal(err)
	}
	// Tune each class's threshold on its own campaign (§5.4.4).
	h.Model("cpu").TuneThreshold(parts["cpu"])
	h.Model("gpu").TuneThreshold(parts["gpu"])

	for _, tc := range []struct {
		name string
		job  int64
	}{
		{"cpu anomaly", anomCPUJob},
		{"gpu anomaly", anomGPUJob},
	} {
		report, err := h.AnalyzeJob(store, tc.job)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(report) != 4 {
			t.Fatalf("%s: %d nodes", tc.name, len(report))
		}
		flagged := 0
		for _, r := range report {
			if r.Anomalous {
				flagged++
			}
		}
		if flagged < 1 || flagged > 3 {
			t.Fatalf("%s: %d nodes flagged, want ~2", tc.name, flagged)
		}
	}
}

func TestHeteroFitValidation(t *testing.T) {
	h := core.NewHetero(map[string]core.Config{"cpu": quickConfig()})
	if err := h.Fit(nil); err == nil {
		t.Fatal("empty datasets should error")
	}
	parts, _, _, _ := heteroCampaign(t, 33)
	if err := h.Fit(parts); err == nil {
		t.Fatal("missing gpu model should error")
	}
}

func TestGPUContendSignature(t *testing.T) {
	inj := hpas.GPUContend{Utilization: 0.9, FBFrac: 0.3}
	if inj.Name() != "gpucontend" {
		t.Fatal("name")
	}
	if inj.Config() != "-u 90% -fb 30%" {
		t.Fatalf("config = %q", inj.Config())
	}
}

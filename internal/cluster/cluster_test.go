package cluster

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"prodigy/internal/apps"
	"prodigy/internal/hpas"
	"prodigy/internal/ldms"
)

func TestSystemSpecsMatchPaper(t *testing.T) {
	e := Eclipse()
	if e.NumNodes() != 1488 {
		t.Fatalf("Eclipse has %d nodes, want 1488", e.NumNodes())
	}
	if e.Spec.MemTotalKB != 128*1024*1024 {
		t.Fatal("Eclipse nodes have 128 GB")
	}
	if e.Spec.Cores != 72 {
		t.Fatalf("Eclipse cores = %d, want 72 (2×18×2)", e.Spec.Cores)
	}
	v := Volta()
	if v.NumNodes() != 52 {
		t.Fatalf("Volta has %d nodes, want 52", v.NumNodes())
	}
}

func TestSubmitAllocatesAndCompletes(t *testing.T) {
	s := NewSystem("test", 8, VoltaNode())
	j1, err := s.Submit("lammps", 4, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(j1.Nodes) != 4 || len(s.free) != 4 {
		t.Fatalf("allocation wrong: %v free=%d", j1.Nodes, len(s.free))
	}
	j2, err := s.Submit("sw4", 4, 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit("sw4", 1, 100, 3); err == nil {
		t.Fatal("expected no-free-nodes error")
	}
	// Jobs got disjoint nodes.
	used := map[int]bool{}
	for _, n := range append(append([]int{}, j1.Nodes...), j2.Nodes...) {
		if used[n] {
			t.Fatalf("node %d double-allocated", n)
		}
		used[n] = true
	}
	if err := s.Complete(j1.ID); err != nil {
		t.Fatal(err)
	}
	if len(s.free) != 4 {
		t.Fatal("nodes not released")
	}
	if err := s.Complete(j1.ID); err == nil {
		t.Fatal("double completion should error")
	}
	if _, ok := s.running[j2.ID]; len(s.running) != 1 || !ok {
		t.Fatalf("running = %v, want only job %d", s.running, j2.ID)
	}
}

func TestSubmitValidation(t *testing.T) {
	s := NewSystem("test", 4, VoltaNode())
	if _, err := s.Submit("no-such-app", 1, 100, 1); err == nil {
		t.Fatal("unknown app should error")
	}
	if _, err := s.Submit("lammps", 0, 100, 1); err == nil {
		t.Fatal("zero nodes should error")
	}
	if _, err := s.Submit("lammps", 1, 0, 1); err == nil {
		t.Fatal("zero duration should error")
	}
}

func TestNodeStepProducesFullSchema(t *testing.T) {
	n := NewNode(0, EclipseNode())
	sig, _ := apps.Get("lammps")
	run := sig.NewRun(100, 1)
	rng := rand.New(rand.NewSource(1))
	samples := n.Step(run.DriversAt(50), rng)
	for _, def := range ldms.Schema() {
		vals, ok := samples[def.Sampler]
		if !ok {
			t.Fatalf("sampler %s missing", def.Sampler)
		}
		v, ok := vals[def.Name]
		if !ok {
			t.Fatalf("metric %s missing from %s", def.Name, def.Sampler)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			t.Fatalf("%s = %v", def.QualifiedName(), v)
		}
	}
}

func TestAccumulatedCountersAreMonotone(t *testing.T) {
	n := NewNode(0, EclipseNode())
	sig, _ := apps.Get("hacc")
	run := sig.NewRun(200, 2)
	rng := rand.New(rand.NewSource(2))
	prev := map[string]float64{}
	for ti := int64(0); ti < 200; ti++ {
		samples := n.Step(run.DriversAt(ti), rng)
		for _, def := range ldms.Schema() {
			if !def.Accumulated {
				continue
			}
			v := samples[def.Sampler][def.Name]
			if v < prev[def.QualifiedName()] {
				t.Fatalf("counter %s decreased at t=%d: %v -> %v", def.QualifiedName(), ti, prev[def.QualifiedName()], v)
			}
			prev[def.QualifiedName()] = v
		}
	}
}

func TestMemleakLowersMemFree(t *testing.T) {
	// Healthy run vs. memleak run: MemFree trajectory must fall under leak.
	collect := func(inj hpas.Injector) []float64 {
		s := NewSystem("test", 1, EclipseNode())
		job, err := s.Submit("lammps", 1, 600, 7)
		if err != nil {
			t.Fatal(err)
		}
		if inj != nil {
			job.Injectors[job.Nodes[0]] = inj
		}
		src := s.newNodeSource(job, job.Nodes[0])
		var memFree []float64
		for ti := int64(0); ti < job.Duration; ti++ {
			memFree = append(memFree, src.Sample(ti)[ldms.Meminfo]["MemFree"])
		}
		return memFree
	}
	healthy := collect(nil)
	leaky := collect(hpas.Memleak{SizeMB: 10, Period: 1})
	// Healthy: MemFree roughly flat after ramp. Leaky: strong downward trend.
	hStart, hEnd := healthy[100], healthy[599]
	lStart, lEnd := leaky[100], leaky[599]
	hDrop := (hStart - hEnd) / hStart
	lDrop := (lStart - lEnd) / lStart
	if lDrop < hDrop+0.03 {
		t.Fatalf("memleak MemFree drop %v vs healthy %v: leak invisible", lDrop, hDrop)
	}
}

// memorySink counts rows thread-safely.
type memorySink struct {
	mu   sync.Mutex
	rows []ldms.Row
}

func (m *memorySink) Ingest(r ldms.Row) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rows = append(m.rows, r)
}

func TestCollectJobProducesAllRows(t *testing.T) {
	s := NewSystem("test", 4, VoltaNode())
	job, err := s.Submit("nas-cg", 4, 30, 3)
	if err != nil {
		t.Fatal(err)
	}
	sink := &memorySink{}
	s.CollectJob(job, ldms.CollectConfig{DropProb: 0, Seed: 1}, sink)
	// 4 nodes × 30 seconds × 3 samplers.
	if len(sink.rows) != 4*30*3 {
		t.Fatalf("collected %d rows, want %d", len(sink.rows), 4*30*3)
	}
	perNode := map[int]int{}
	for _, r := range sink.rows {
		if r.JobID != job.ID {
			t.Fatal("wrong job ID on row")
		}
		perNode[r.Component]++
	}
	for _, n := range job.Nodes {
		if perNode[n] != 90 {
			t.Fatalf("node %d has %d rows", n, perNode[n])
		}
	}
}

func TestCollectJobDropsSamples(t *testing.T) {
	s := NewSystem("test", 2, VoltaNode())
	job, err := s.Submit("nas-cg", 2, 100, 4)
	if err != nil {
		t.Fatal(err)
	}
	sink := &memorySink{}
	s.CollectJob(job, ldms.CollectConfig{DropProb: 0.2, Seed: 1}, sink)
	full := 2 * 100 * 3
	if len(sink.rows) >= full {
		t.Fatal("drops expected")
	}
	if len(sink.rows) < full/2 {
		t.Fatalf("too many drops: %d of %d", len(sink.rows), full)
	}
}

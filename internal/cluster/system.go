package cluster

import (
	"fmt"
	"sort"
	"sync"

	"prodigy/internal/apps"
	"prodigy/internal/hpas"
)

// System is a simulated HPC system: a pool of nodes and a minimal
// space-sharing scheduler.
type System struct {
	Name string
	Spec NodeSpec

	mu       sync.Mutex
	numNodes int
	free     map[int]bool
	nextJob  int64
	running  map[int64]*Job
	// gpuNodes marks GPU partition members; gpuSpec is their hardware.
	gpuNodes map[int]bool
	gpuSpec  NodeSpec
}

// NewSystem builds a system with n nodes of the given spec.
func NewSystem(name string, n int, spec NodeSpec) *System {
	s := &System{
		Name:     name,
		Spec:     spec,
		numNodes: n,
		free:     make(map[int]bool, n),
		nextJob:  1,
		running:  make(map[int64]*Job),
	}
	for i := 0; i < n; i++ {
		s.free[i] = true
	}
	return s
}

// NewHeterogeneousSystem builds a mixed CPU/GPU system for the §7
// heterogeneous-systems extension: nodes [0, cpu) use cpuSpec, nodes
// [cpu, cpu+gpu) use gpuSpec (which must have GPUs > 0). GPU-requiring
// applications schedule onto the GPU partition only.
func NewHeterogeneousSystem(name string, cpu int, cpuSpec NodeSpec, gpu int, gpuSpec NodeSpec) *System {
	s := NewSystem(name, cpu+gpu, cpuSpec)
	s.gpuSpec = gpuSpec
	s.gpuNodes = make(map[int]bool, gpu)
	for i := cpu; i < cpu+gpu; i++ {
		s.gpuNodes[i] = true
	}
	return s
}

// SpecFor returns the hardware spec of a node (the GPU partition's spec
// for GPU nodes).
func (s *System) SpecFor(node int) NodeSpec {
	if s.gpuNodes[node] {
		return s.gpuSpec
	}
	return s.Spec
}

// Eclipse returns the production system of the paper: 1488 nodes (§5.1).
func Eclipse() *System { return NewSystem("eclipse", 1488, EclipseNode()) }

// Volta returns the testbed of the paper: 52 nodes (§5.1). Its 13
// switches of 4 nodes are not modelled: nothing in the simulation
// depends on which switch a node hangs off.
func Volta() *System { return NewSystem("volta", 52, VoltaNode()) }

// NumNodes returns the node count.
func (s *System) NumNodes() int { return s.numNodes }

// Job is one scheduled application run.
type Job struct {
	ID       int64
	App      string
	Nodes    []int
	Duration int64 // seconds
	// Injectors maps node ID -> anomaly injector; absent nodes are healthy.
	Injectors map[int]hpas.Injector
	// Seed drives all randomness of the job's telemetry.
	Seed int64
}

// InjectorFor returns the injector running on the given node (None when
// healthy).
func (j *Job) InjectorFor(node int) hpas.Injector {
	if inj, ok := j.Injectors[node]; ok && inj != nil {
		return inj
	}
	return hpas.None{}
}

// Submit allocates numNodes free nodes to a new job running the named
// application for duration seconds. Nodes are allocated lowest-ID first
// (packing switches together when a topology exists).
func (s *System) Submit(app string, numNodes int, duration int64, seed int64) (*Job, error) {
	sig, err := apps.Get(app)
	if err != nil {
		return nil, err
	}
	if numNodes <= 0 {
		return nil, fmt.Errorf("cluster: job needs at least 1 node, got %d", numNodes)
	}
	if duration <= 0 {
		return nil, fmt.Errorf("cluster: job duration %d", duration)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// GPU applications draw from the GPU partition; CPU applications from
	// the CPU partition (on a homogeneous system every node is CPU).
	ids := make([]int, 0, len(s.free))
	for id := range s.free {
		if s.gpuNodes[id] == sig.RequiresGPU {
			ids = append(ids, id)
		}
	}
	if len(ids) < numNodes {
		kind := "CPU"
		if sig.RequiresGPU {
			kind = "GPU"
		}
		return nil, fmt.Errorf("cluster: %d %s nodes requested, %d free", numNodes, kind, len(ids))
	}
	sort.Ints(ids)
	alloc := ids[:numNodes]
	for _, id := range alloc {
		delete(s.free, id)
	}
	j := &Job{
		ID:        s.nextJob,
		App:       app,
		Nodes:     alloc,
		Duration:  duration,
		Injectors: make(map[int]hpas.Injector),
		Seed:      seed,
	}
	s.nextJob++
	s.running[j.ID] = j
	return j, nil
}

// Complete releases a job's nodes back to the free pool.
func (s *System) Complete(jobID int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.running[jobID]
	if !ok {
		return fmt.Errorf("cluster: job %d is not running", jobID)
	}
	for _, id := range j.Nodes {
		s.free[id] = true
	}
	delete(s.running, jobID)
	return nil
}

// NodeRunSeed derives the deterministic telemetry seed for one (job, node)
// pair.
func NodeRunSeed(jobSeed int64, jobID int64, node int) int64 {
	return jobSeed*1000003 + jobID*7919 + int64(node)*104729
}

// Package apps models the telemetry signatures of the HPC applications the
// paper runs on Eclipse and Volta (Table 1). The anomaly detector never
// sees application binaries — only the multivariate telemetry they induce —
// so each application is modeled as a parametric driver signature: how much
// CPU it burns in user/system/iowait, its memory footprint and paging
// behaviour, its phase structure (compute/communication/IO cycles), and its
// run-to-run variability. Distinct, repeatable signatures per application
// reproduce the property the paper leans on: "each HPC application may
// exhibit unique characteristics".
package apps

import (
	"fmt"
	"math"
	"math/rand"
)

// Drivers is the compact per-second behavioural state of one compute node
// running an application. The cluster simulation expands drivers into the
// full LDMS metric schema.
type Drivers struct {
	// CPU time fractions of one node-second; the remainder is idle.
	User, Sys, IOWait, IRQ, SoftIRQ, Nice float64

	// Memory occupancy as fractions of the node's total memory.
	MemUsedFrac   float64 // anonymous (application) memory
	FileCacheFrac float64 // page cache
	DirtyFrac     float64 // dirty pages awaiting writeback

	// GPU activity (zero on CPU-only nodes/applications) — the §7
	// heterogeneous-systems extension. Fractions are of one device-second
	// or of device memory.
	GPUUtil     float64 // SM occupancy fraction
	GPUMemFrac  float64 // framebuffer occupancy fraction
	GPUCopyUtil float64 // memory-copy engine utilization fraction
	GPUPowerW   float64 // board power draw in watts
	GPUPcieRate float64 // PCIe transfer rate, bytes/second
	GPUNvlink   float64 // NVLink transfer rate, bytes/second

	// Kernel activity rates (events per second).
	PgFault, PgMajFault float64
	PgIn, PgOut         float64 // pages paged in/out (I/O)
	SwapIn, SwapOut     float64
	PgAlloc, PgFree     float64
	PgActivate, PgScan  float64
	PgSteal, PgRotated  float64
	PgInodeSteal        float64
	NumaHit, NumaMiss   float64
	Ctxt, Intr          float64 // context switches, interrupts
	Processes           float64 // forks per second
	ProcsRunning        float64 // instantaneous runnable processes
	ProcsBlocked        float64 // instantaneous blocked processes
}

// clamp01 bounds all fraction fields after anomaly perturbation.
func (d *Drivers) Clamp() {
	cpu := d.User + d.Sys + d.IOWait + d.IRQ + d.SoftIRQ + d.Nice
	if cpu > 1 {
		// Scale CPU shares down proportionally; the node cannot exceed
		// one second of CPU time per second.
		f := 1 / cpu
		d.User *= f
		d.Sys *= f
		d.IOWait *= f
		d.IRQ *= f
		d.SoftIRQ *= f
		d.Nice *= f
	}
	clampFrac := func(v *float64) {
		if *v < 0 {
			*v = 0
		}
		if *v > 0.98 {
			*v = 0.98
		}
	}
	clampFrac(&d.MemUsedFrac)
	clampFrac(&d.FileCacheFrac)
	clampFrac(&d.DirtyFrac)
	clampFrac(&d.GPUMemFrac)
	if d.GPUUtil < 0 {
		d.GPUUtil = 0
	}
	if d.GPUUtil > 1 {
		d.GPUUtil = 1
	}
	if d.GPUCopyUtil < 0 {
		d.GPUCopyUtil = 0
	}
	if d.GPUCopyUtil > 1 {
		d.GPUCopyUtil = 1
	}
	// Rates must be non-negative.
	for _, p := range []*float64{
		&d.PgFault, &d.PgMajFault, &d.PgIn, &d.PgOut, &d.SwapIn, &d.SwapOut,
		&d.PgAlloc, &d.PgFree, &d.PgActivate, &d.PgScan, &d.PgSteal,
		&d.PgRotated, &d.PgInodeSteal, &d.NumaHit, &d.NumaMiss, &d.Ctxt,
		&d.Intr, &d.Processes, &d.ProcsRunning, &d.ProcsBlocked,
	} {
		if *p < 0 {
			*p = 0
		}
	}
}

// Signature is a parametric application model.
type Signature struct {
	Name        string
	Description string

	// RequiresGPU marks GPU-accelerated applications; the scheduler places
	// them on GPU nodes only (§7 heterogeneous-systems extension).
	RequiresGPU bool
	// GPUUtil/GPUMem are the device occupancy levels during compute phases
	// (ignored unless RequiresGPU).
	GPUUtil float64
	GPUMem  float64

	// Base CPU shares during compute phases.
	CPUUser float64
	CPUSys  float64
	IOWait  float64

	// Memory footprint range; the actual footprint per run is drawn
	// uniformly and ramps up over the first RampSeconds.
	MemLow, MemHigh float64
	FileCache       float64
	RampSeconds     int

	// Phase structure: the signature oscillates between compute and
	// communication/IO with this period (seconds) and relative depth.
	PhasePeriod float64
	PhaseDepth  float64 // 0 = flat, 1 = full-depth dips

	// Activity level scales the kernel event rates.
	PageRate float64 // page faults/sec during compute
	IORate   float64 // pages in+out/sec during IO phases
	CtxtRate float64 // context switches/sec

	// Noise is the multiplicative jitter applied per second.
	Noise float64
}

// Run binds a signature to one (job, node) execution with its run-level
// variability frozen.
type Run struct {
	Sig          *Signature
	Total        int64 // run duration in seconds
	memFootprint float64
	phaseOffset  float64
	speedFactor  float64 // run-to-run pace variability
	cpuLevel     float64 // run-to-run CPU-level variability
	rateLevel    float64 // run-to-run kernel-activity variability
	rng          *rand.Rand
}

// NewRun freezes the run-level variability of a signature for a run of the
// given duration. The seed should derive from (job ID, component ID) so
// every node of every job gets an independent but reproducible stream.
// Run-to-run variability is substantial on purpose: the paper's motivation
// (§1) is that execution behaviour varies up to 70% run to run even with
// identical input decks.
func (s *Signature) NewRun(total int64, seed int64) *Run {
	rng := rand.New(rand.NewSource(seed))
	return &Run{
		Sig:          s,
		Total:        total,
		memFootprint: s.MemLow + rng.Float64()*(s.MemHigh-s.MemLow),
		phaseOffset:  rng.Float64() * s.PhasePeriod,
		speedFactor:  0.8 + rng.Float64()*0.45,
		cpuLevel:     0.92 + rng.Float64()*0.16,
		rateLevel:    0.75 + rng.Float64()*0.5,
		rng:          rng,
	}
}

// DriversAt returns the drivers for second t of the run.
func (r *Run) DriversAt(t int64) Drivers {
	s := r.Sig
	noise := func(scale float64) float64 {
		return 1 + r.rng.NormFloat64()*s.Noise*scale
	}
	// Phase position in [0, 1): early part of each period is compute, the
	// tail is communication/IO.
	var phase float64
	if s.PhasePeriod > 0 {
		phase = math.Mod(float64(t)*r.speedFactor+r.phaseOffset, s.PhasePeriod) / s.PhasePeriod
	}
	// ioShare rises smoothly near the end of each period.
	ioShare := s.PhaseDepth * 0.5 * (1 + math.Cos(2*math.Pi*phase+math.Pi))

	// Memory ramps up during initialization, then holds with small jitter.
	ramp := 1.0
	if s.RampSeconds > 0 && t < int64(s.RampSeconds) {
		ramp = float64(t) / float64(s.RampSeconds)
	}

	cpu := r.cpuLevel
	rate := r.rateLevel
	d := Drivers{
		User:          s.CPUUser * cpu * (1 - ioShare) * noise(1),
		Sys:           s.CPUSys * (1 + ioShare) * noise(1),
		IOWait:        s.IOWait * (1 + 3*ioShare) * noise(1),
		IRQ:           0.002 * noise(2),
		SoftIRQ:       0.004 * noise(2),
		Nice:          0,
		MemUsedFrac:   r.memFootprint * ramp * noise(0.1),
		FileCacheFrac: s.FileCache * noise(0.2),
		DirtyFrac:     0.002 * (1 + 5*ioShare) * noise(0.5),
		PgFault:       s.PageRate * rate * (1 - 0.5*ioShare) * noise(1),
		PgMajFault:    0.1 * noise(3),
		PgIn:          s.IORate * rate * ioShare * noise(1),
		PgOut:         s.IORate * rate * 0.6 * ioShare * noise(1),
		PgAlloc:       s.PageRate * rate * 1.2 * noise(1),
		PgFree:        s.PageRate * rate * 1.2 * noise(1),
		PgActivate:    s.PageRate * rate * 0.1 * noise(1),
		PgScan:        2 * noise(2),
		PgSteal:       1 * noise(2),
		PgRotated:     0.5 * noise(2),
		PgInodeSteal:  0.2 * noise(2),
		NumaHit:       s.PageRate * rate * 2 * noise(1),
		NumaMiss:      s.PageRate * rate * 0.05 * noise(2),
		Ctxt:          s.CtxtRate * rate * (1 + 2*ioShare) * noise(1),
		Intr:          s.CtxtRate * rate * 0.5 * noise(1),
		Processes:     0.5 * noise(2),
		ProcsRunning:  math.Round(30*s.CPUUser*cpu*(1-ioShare)) + 2,
		ProcsBlocked:  math.Round(8 * ioShare),
	}
	if s.RequiresGPU {
		// GPU work follows the same phase structure: kernels run in the
		// compute share, device-host transfers dominate the I/O share.
		d.GPUUtil = s.GPUUtil * cpu * (1 - ioShare) * noise(1)
		d.GPUMemFrac = s.GPUMem * ramp * noise(0.1)
		d.GPUCopyUtil = (0.05 + 0.5*ioShare) * noise(1)
		d.GPUPowerW = 80 + 220*d.GPUUtil*noise(0.5)
		d.GPUPcieRate = 2e9 * ioShare * rate * noise(1)
		d.GPUNvlink = 5e9 * s.GPUUtil * (1 - ioShare) * rate * noise(1)
	}
	d.Clamp()
	return d
}

// registry holds all known application signatures keyed by name.
var registry = map[string]*Signature{}

func register(sig *Signature) {
	if _, dup := registry[sig.Name]; dup {
		panic(fmt.Sprintf("apps: duplicate signature %q", sig.Name))
	}
	registry[sig.Name] = sig
}

// Get returns the signature registered under name.
func Get(name string) (*Signature, error) {
	s, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("apps: unknown application %q", name)
	}
	return s, nil
}

// EclipseApps lists the applications the paper runs on Eclipse (Table 1).
func EclipseApps() []string {
	return []string{"lammps", "hacc", "sw4", "examinimd", "swfft", "sw4lite"}
}

// VoltaApps lists the applications the paper runs on Volta (Table 1).
func VoltaApps() []string {
	return []string{
		"nas-bt", "nas-cg", "nas-ft", "nas-lu", "nas-mg", "nas-sp",
		"minimd", "comd", "minighost", "miniamr", "kripke",
	}
}

// Package hpas simulates the High Performance Anomaly Suite (Ates et al.,
// ICPP 2019), the synthetic-anomaly generator the paper uses for ground
// truth (§5.2, Table 2). Each injector runs "alongside" the application on
// a node, perturbing the node's telemetry drivers the way the real
// injector perturbs real counters:
//
//   - memleak: allocates and never frees — monotone anonymous-memory
//     growth, falling MemFree, rising page-allocation traffic, and
//     eventually reclaim/swap pressure.
//   - membw: saturates memory bandwidth — extra CPU burn, large NUMA and
//     page-activity traffic, application slowdown.
//   - cpuoccupy: burns CPU at a utilization target — user time pinned up,
//     runnable process count up, application share squeezed.
//   - cachecopy: thrashes a cache level by copying arrays — context-switch
//     and page-activity churn with moderate CPU overhead.
//   - iodegrade: degraded filesystem performance (the Lustre issue of
//     §6.2) — iowait up, paging throughput down, blocked processes up.
//   - netcontend: network contention — system/softirq time up, context
//     switches up (the paper excludes this one from its campaigns; it is
//     provided for completeness).
package hpas

import (
	"fmt"
	"math/rand"
	"sort"

	"prodigy/internal/apps"
)

// Injector perturbs the drivers of one node-second. Implementations must be
// deterministic given the rng stream.
type Injector interface {
	// Name returns the anomaly type name, e.g. "memleak".
	Name() string
	// Config returns the human-readable configuration string (Table 2).
	Config() string
	// Apply perturbs d for second t of a run lasting total seconds.
	Apply(d *apps.Drivers, t, total int64, rng *rand.Rand)
}

// None is the nil injector used for healthy runs.
type None struct{}

// Name implements Injector.
func (None) Name() string { return "none" }

// Config implements Injector.
func (None) Config() string { return "" }

// Apply implements Injector.
func (None) Apply(*apps.Drivers, int64, int64, *rand.Rand) {}

// Memleak simulates a memory leak: an array of characters allocated every
// period without storing the addresses (so it can never be freed).
type Memleak struct {
	// SizeMB is the allocation size per step (Table 2: 1M, 3M, 10M).
	SizeMB float64
	// Period is the allocation period in seconds (Table 2: -p 0.2/0.4/1 —
	// fractions of a second between allocations).
	Period float64
}

// Name implements Injector.
func (Memleak) Name() string { return "memleak" }

// Config implements Injector.
func (m Memleak) Config() string { return fmt.Sprintf("-s %gM -p %g", m.SizeMB, m.Period) }

// Apply implements Injector.
func (m Memleak) Apply(d *apps.Drivers, t, total int64, rng *rand.Rand) {
	// Leaked memory grows linearly: SizeMB every Period seconds, as a
	// fraction of a 128 GB node.
	const nodeMB = 128 * 1024
	leakMB := m.SizeMB * float64(t) / m.Period
	leakFrac := leakMB / nodeMB
	d.MemUsedFrac += leakFrac
	// Allocation traffic from the leaker: each allocation faults its pages
	// in and churns the allocator (alloc + zeroing + page-table traffic).
	allocPages := m.SizeMB * 256 / m.Period // 4 KB pages per second
	d.PgAlloc += 2 * allocPages
	d.PgFault += 2 * allocPages
	d.User += 0.03
	// The kernel reclaims page cache ahead of swapping as the leak grows.
	shrink := 1 - 3*leakFrac
	if shrink < 0.3 {
		shrink = 0.3
	}
	d.FileCacheFrac *= shrink
	// Memory pressure once occupancy is high: reclaim scanning, rotation,
	// and eventually swapping.
	if d.MemUsedFrac+d.FileCacheFrac > 0.85 {
		pressure := (d.MemUsedFrac + d.FileCacheFrac - 0.85) * 20
		d.PgScan += 4000 * pressure * (1 + rng.Float64())
		d.PgSteal += 2500 * pressure
		d.PgRotated += 600 * pressure
		d.SwapOut += 800 * pressure
		d.PgMajFault += 50 * pressure
		d.FileCacheFrac *= 0.6 // cache shrinks under pressure
	}
}

// Membw simulates memory bandwidth contention: a stream kernel repeatedly
// sweeping a buffer larger than cache (Table 2: -s 4K/8K/32K).
type Membw struct {
	SizeKB int
}

// Name implements Injector.
func (Membw) Name() string { return "membw" }

// Config implements Injector.
func (m Membw) Config() string { return fmt.Sprintf("-s %dK", m.SizeKB) }

// Apply implements Injector.
func (m Membw) Apply(d *apps.Drivers, t, total int64, rng *rand.Rand) {
	intensity := float64(m.SizeKB) / 32.0 // 32K is the heaviest config
	if intensity > 1 {
		intensity = 1
	}
	d.User += 0.25 * intensity
	d.NumaMiss += 8000 * intensity * (1 + 0.2*rng.Float64())
	d.NumaHit += 20000 * intensity
	d.PgActivate += 3000 * intensity
	d.PgFault += 2000 * intensity
	d.PgScan += 500 * intensity
	d.MemUsedFrac += 0.02
	d.Intr += 2000 * intensity
	// The victim application slows down: its own work rate drops and the
	// stream kernel churns the scheduler.
	d.Ctxt = d.Ctxt*(1+0.4*intensity) + 3000*intensity
	d.ProcsRunning += 4
}

// CPUOccupy simulates excessive CPU utilization at a target percentage
// (Table 2: -u 100%, 80%).
type CPUOccupy struct {
	Utilization float64 // 0..1
}

// Name implements Injector.
func (CPUOccupy) Name() string { return "cpuoccupy" }

// Config implements Injector.
func (c CPUOccupy) Config() string { return fmt.Sprintf("-u %d%%", int(c.Utilization*100)) }

// Apply implements Injector.
func (c CPUOccupy) Apply(d *apps.Drivers, t, total int64, rng *rand.Rand) {
	// The occupier takes its share; Clamp rescales the application down,
	// mimicking time-sharing with the injector.
	u := c.Utilization
	d.User += u
	d.ProcsRunning += 30 * u
	d.Ctxt += 10000 * u // scheduler churn from the spinning threads
	d.Intr += 6000 * u
	d.PgFault += 1500 * u // the occupier's working set
	d.Processes += 4 * u
	// The starved application's own activity drops.
	d.PgIn *= 1 - 0.4*u
	d.PgOut *= 1 - 0.4*u
	d.NumaHit *= 1 - 0.3*u
}

// CacheCopy simulates cache contention by repeatedly swapping two arrays
// sized to a cache level (Table 2: -c L1 -m 1 / -c L2 -m 2).
type CacheCopy struct {
	Level string // "L1", "L2", "L3"
	Mult  int    // multiplier -m
}

// Name implements Injector.
func (CacheCopy) Name() string { return "cachecopy" }

// Config implements Injector.
func (c CacheCopy) Config() string { return fmt.Sprintf("-c %s -m %d", c.Level, c.Mult) }

// Apply implements Injector.
func (c CacheCopy) Apply(d *apps.Drivers, t, total int64, rng *rand.Rand) {
	level := map[string]float64{"L1": 0.4, "L2": 0.7, "L3": 1.0}[c.Level]
	if level == 0 {
		level = 0.5
	}
	intensity := level * float64(c.Mult) / 2
	d.User += 0.22 * intensity
	d.Ctxt += 12000 * intensity * (1 + 0.2*rng.Float64())
	d.Intr += 4000 * intensity
	d.PgActivate += 2500 * intensity
	d.PgFault += 1200 * intensity
	d.NumaHit += 15000 * intensity
	d.PgSteal += 500 * intensity
	d.FileCacheFrac *= 1 - 0.3*intensity // thrashing evicts page cache
	d.ProcsRunning += 4
}

// IODegrade simulates degraded backend-filesystem performance — the Lustre
// issue behind the paper's in-the-wild Empire experiment (§6.2). It is a
// condition of the environment rather than a co-running program: I/O
// phases stall, iowait rises, and paging throughput collapses.
type IODegrade struct {
	// Severity in (0, 1]: fraction of I/O throughput lost.
	Severity float64
}

// Name implements Injector.
func (IODegrade) Name() string { return "iodegrade" }

// Config implements Injector.
func (i IODegrade) Config() string { return fmt.Sprintf("-severity %.2f", i.Severity) }

// Apply implements Injector.
func (i IODegrade) Apply(d *apps.Drivers, t, total int64, rng *rand.Rand) {
	s := i.Severity
	// Whatever I/O the application attempts completes slower: throughput
	// down, wait time and blocked processes up, dirty pages accumulate.
	stall := d.PgIn + d.PgOut
	d.PgIn *= 1 - 0.8*s
	d.PgOut *= 1 - 0.8*s
	d.IOWait += 0.25 * s * (stall/1000 + 0.2)
	d.User *= 1 - 0.3*s*min1(stall/1000)
	d.ProcsBlocked += 6 * s * min1(stall/500)
	d.DirtyFrac += 0.01 * s
	d.PgInodeSteal += 50 * s * rng.Float64()
}

func min1(v float64) float64 {
	if v > 1 {
		return 1
	}
	return v
}

// Table2 returns the exact anomaly configurations of the paper's Table 2,
// keyed by anomaly type.
func Table2() map[string][]Injector {
	return map[string][]Injector{
		"cpuoccupy": {CPUOccupy{Utilization: 1.0}, CPUOccupy{Utilization: 0.8}},
		"cachecopy": {CacheCopy{Level: "L1", Mult: 1}, CacheCopy{Level: "L2", Mult: 2}},
		"membw":     {Membw{SizeKB: 4}, Membw{SizeKB: 8}, Membw{SizeKB: 32}},
		"memleak": {
			Memleak{SizeMB: 1, Period: 0.2},
			Memleak{SizeMB: 3, Period: 0.4},
			Memleak{SizeMB: 10, Period: 1},
		},
	}
}

// AllTable2 returns every Table 2 injector flattened into one slice, in
// deterministic order, interleaved round-robin across anomaly kinds so a
// campaign that uses only the first few injectors still covers every type.
func AllTable2() []Injector {
	t2 := Table2()
	kinds := make([]string, 0, len(t2))
	for k := range t2 {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	var out []Injector
	for round := 0; ; round++ {
		added := false
		for _, k := range kinds {
			if round < len(t2[k]) {
				out = append(out, t2[k][round])
				added = true
			}
		}
		if !added {
			return out
		}
	}
}

// GPUContend simulates a co-located GPU hog for the heterogeneous-systems
// extension (§7 future work): a rogue kernel occupies SMs and framebuffer,
// pinning utilization and power up while the victim application's own
// device throughput (and thus its host-side activity) drops.
type GPUContend struct {
	// Utilization is the hog's SM occupancy target in (0, 1].
	Utilization float64
	// FBFrac is the framebuffer fraction the hog allocates.
	FBFrac float64
}

// Name implements Injector.
func (GPUContend) Name() string { return "gpucontend" }

// Config implements Injector.
func (g GPUContend) Config() string {
	return fmt.Sprintf("-u %d%% -fb %d%%", int(g.Utilization*100), int(g.FBFrac*100))
}

// Apply implements Injector.
func (g GPUContend) Apply(d *apps.Drivers, t, total int64, rng *rand.Rand) {
	d.GPUUtil += g.Utilization
	d.GPUMemFrac += g.FBFrac
	d.GPUPowerW += 180 * g.Utilization * (1 + 0.1*rng.Float64())
	d.GPUCopyUtil += 0.1 * g.Utilization
	// The starved application stalls waiting on the device: host CPU idles
	// more, device-bound transfer rates drop.
	d.User *= 1 - 0.3*g.Utilization
	d.GPUNvlink *= 1 - 0.5*g.Utilization
	d.ProcsBlocked += 4 * g.Utilization
}

// Package cluster models the compute systems of the paper — Eclipse (1488
// nodes) and Volta (52 nodes, 13 switches × 4) — at the level Prodigy
// observes them: per-node kernel counters driven by the application and
// anomaly simulation. A Node expands the compact per-second Drivers of a
// running application into the full LDMS metric schema, maintaining
// accumulated counters exactly like a real kernel (monotone totals the
// analytics pipeline must first-difference).
package cluster

import (
	"math/rand"

	"prodigy/internal/apps"
	"prodigy/internal/ldms"
)

// NodeSpec holds the hardware constants of one compute node.
type NodeSpec struct {
	MemTotalKB int64
	SwapKB     int64
	// Cores is the hardware thread count (procstat jiffies scale with it).
	Cores int
	// GPUs is the device count; nodes with GPUs > 0 additionally report
	// the dcgm sampler (§7 heterogeneous-systems extension).
	GPUs int
	// GPUMemKB is per-device framebuffer capacity.
	GPUMemKB int64
}

// GPUNode returns the spec of a GPU compute node for the heterogeneous
// extension: an Eclipse-class host with four 40 GB devices.
func GPUNode() NodeSpec {
	spec := EclipseNode()
	spec.GPUs = 4
	spec.GPUMemKB = 40 * 1024 * 1024
	return spec
}

// EclipseNode returns the per-node spec of Eclipse: 128 GB, two 18-core
// sockets with 2-way hyperthreading (§5.1).
func EclipseNode() NodeSpec {
	return NodeSpec{MemTotalKB: 128 * 1024 * 1024, SwapKB: 8 * 1024 * 1024, Cores: 72}
}

// VoltaNode returns the per-node spec of Volta: 64 GB, two 12-core sockets
// with 2-way hyperthreading (§5.1).
func VoltaNode() NodeSpec {
	return NodeSpec{MemTotalKB: 64 * 1024 * 1024, SwapKB: 8 * 1024 * 1024, Cores: 48}
}

// jiffiesPerSecond is the kernel HZ constant.
const jiffiesPerSecond = 100

// pageKB is the page size in KB.
const pageKB = 4

// Node is one simulated compute node. It is not safe for concurrent use;
// the per-node sampler daemon owns it.
type Node struct {
	ID   int
	Spec NodeSpec

	// Accumulated counters (monotone), keyed by metric name.
	counters map[string]float64
	// swapUsedKB tracks cumulative swap occupancy for SwapFree.
	swapUsedKB float64
}

// NewNode returns a node with zeroed counters.
func NewNode(id int, spec NodeSpec) *Node {
	return &Node{ID: id, Spec: spec, counters: make(map[string]float64)}
}

// bump adds delta to an accumulated counter and returns its new value.
func (n *Node) bump(name string, delta float64) float64 {
	if delta < 0 {
		delta = 0
	}
	n.counters[name] += delta
	return n.counters[name]
}

// Step advances the node by one second under drivers d and returns the
// current raw metric values grouped by sampler. rng adds small measurement
// noise, as real samplers observe slightly jittered instantaneous values.
func (n *Node) Step(d apps.Drivers, rng *rand.Rand) map[ldms.SamplerName]map[string]float64 {
	memTotal := float64(n.Spec.MemTotalKB)
	jitter := func(v float64) float64 {
		if v == 0 {
			return 0
		}
		return v * (1 + rng.NormFloat64()*0.005)
	}

	// --- Memory occupancy in KB ---
	anon := d.MemUsedFrac * memTotal
	cached := d.FileCacheFrac * memTotal
	dirty := d.DirtyFrac * memTotal
	slab := 0.012 * memTotal
	kernelStack := 0.0004 * memTotal
	pageTables := 0.002*memTotal + anon*0.002
	shmem := 0.001 * memTotal
	mapped := anon * 0.12
	buffers := 0.003 * memTotal
	used := anon + cached + slab + kernelStack + pageTables + shmem + buffers
	free := memTotal - used
	if free < 0.01*memTotal {
		free = 0.01 * memTotal
	}
	available := free + cached*0.85 + slab*0.5

	// Swap occupancy accumulates with swap-out and drains with swap-in.
	n.swapUsedKB += (d.SwapOut - d.SwapIn) * pageKB
	if n.swapUsedKB < 0 {
		n.swapUsedKB = 0
	}
	if n.swapUsedKB > float64(n.Spec.SwapKB) {
		n.swapUsedKB = float64(n.Spec.SwapKB)
	}

	activeAnon := anon * 0.7
	inactiveAnon := anon * 0.3
	activeFile := cached * 0.55
	inactiveFile := cached * 0.45

	meminfo := map[string]float64{
		"MemTotal":          memTotal,
		"MemFree":           jitter(free),
		"MemAvailable":      jitter(available),
		"Buffers":           jitter(buffers),
		"Cached":            jitter(cached),
		"SwapCached":        jitter(n.swapUsedKB * 0.1),
		"Active":            jitter(activeAnon + activeFile),
		"Inactive":          jitter(inactiveAnon + inactiveFile),
		"Active_anon":       jitter(activeAnon),
		"Inactive_anon":     jitter(inactiveAnon),
		"Active_file":       jitter(activeFile),
		"Inactive_file":     jitter(inactiveFile),
		"Unevictable":       0,
		"Mlocked":           0,
		"SwapTotal":         float64(n.Spec.SwapKB),
		"SwapFree":          float64(n.Spec.SwapKB) - n.swapUsedKB,
		"Dirty":             jitter(dirty),
		"Writeback":         jitter(dirty * 0.2),
		"AnonPages":         jitter(anon),
		"Mapped":            jitter(mapped),
		"Shmem":             jitter(shmem),
		"Slab":              jitter(slab),
		"SReclaimable":      jitter(slab * 0.6),
		"SUnreclaim":        jitter(slab * 0.4),
		"KernelStack":       jitter(kernelStack),
		"PageTables":        jitter(pageTables),
		"NFS_Unstable":      0,
		"Bounce":            0,
		"WritebackTmp":      0,
		"CommitLimit":       memTotal*0.5 + float64(n.Spec.SwapKB),
		"Committed_AS":      jitter(anon * 1.3),
		"VmallocTotal":      34359738367,
		"VmallocUsed":       jitter(0.001 * memTotal),
		"VmallocChunk":      34359000000,
		"HardwareCorrupted": 0,
		"AnonHugePages":     jitter(anon * 0.5),
		"HugePages_Total":   0,
		"HugePages_Free":    0,
		"DirectMap4k":       0.002 * memTotal,
		"DirectMap2M":       0.25 * memTotal,
		"DirectMap1G":       0.75 * memTotal,
	}

	// --- vmstat: gauges mirror meminfo in pages ---
	vmstat := map[string]float64{
		"nr_free_pages":         meminfo["MemFree"] / pageKB,
		"nr_inactive_anon":      inactiveAnon / pageKB,
		"nr_active_anon":        activeAnon / pageKB,
		"nr_inactive_file":      inactiveFile / pageKB,
		"nr_active_file":        activeFile / pageKB,
		"nr_unevictable":        0,
		"nr_mlock":              0,
		"nr_anon_pages":         anon / pageKB,
		"nr_mapped":             mapped / pageKB,
		"nr_file_pages":         (cached + buffers) / pageKB,
		"nr_dirty":              dirty / pageKB,
		"nr_writeback":          dirty * 0.2 / pageKB,
		"nr_slab_reclaimable":   slab * 0.6 / pageKB,
		"nr_slab_unreclaimable": slab * 0.4 / pageKB,
		"nr_page_table_pages":   pageTables / pageKB,
		"nr_kernel_stack":       kernelStack / pageKB,
		"nr_bounce":             0,
		"nr_shmem":              shmem / pageKB,
		"nr_dirtied":            n.bump("nr_dirtied", d.PgOut*0.8),
		"nr_written":            n.bump("nr_written", d.PgOut*0.75),
		// Accumulated counters driven by the rates.
		"pgpgin":                n.bump("pgpgin", jitter(d.PgIn*pageKB)),
		"pgpgout":               n.bump("pgpgout", jitter(d.PgOut*pageKB)),
		"pswpin":                n.bump("pswpin", d.SwapIn),
		"pswpout":               n.bump("pswpout", d.SwapOut),
		"pgalloc_normal":        n.bump("pgalloc_normal", jitter(d.PgAlloc)),
		"pgfree":                n.bump("pgfree", jitter(d.PgFree)),
		"pgactivate":            n.bump("pgactivate", jitter(d.PgActivate)),
		"pgdeactivate":          n.bump("pgdeactivate", jitter(d.PgActivate*0.6)),
		"pgfault":               n.bump("pgfault", jitter(d.PgFault)),
		"pgmajfault":            n.bump("pgmajfault", d.PgMajFault),
		"pgrefill_normal":       n.bump("pgrefill_normal", jitter(d.PgScan*0.5)),
		"pgsteal_kswapd_normal": n.bump("pgsteal_kswapd_normal", jitter(d.PgSteal*0.7)),
		"pgsteal_direct_normal": n.bump("pgsteal_direct_normal", jitter(d.PgSteal*0.3)),
		"pgscan_kswapd_normal":  n.bump("pgscan_kswapd_normal", jitter(d.PgScan*0.7)),
		"pgscan_direct_normal":  n.bump("pgscan_direct_normal", jitter(d.PgScan*0.3)),
		"pginodesteal":          n.bump("pginodesteal", d.PgInodeSteal),
		"slabs_scanned":         n.bump("slabs_scanned", jitter(d.PgScan*2)),
		"kswapd_inodesteal":     n.bump("kswapd_inodesteal", d.PgInodeSteal*0.5),
		"pageoutrun":            n.bump("pageoutrun", d.PgScan*0.01),
		"allocstall":            n.bump("allocstall", d.PgScan*0.005),
		"pgrotated":             n.bump("pgrotated", d.PgRotated),
		"numa_hit":              n.bump("numa_hit", jitter(d.NumaHit)),
		"numa_miss":             n.bump("numa_miss", jitter(d.NumaMiss)),
		"numa_local":            n.bump("numa_local", jitter(d.NumaHit*0.97)),
		"numa_foreign":          n.bump("numa_foreign", jitter(d.NumaMiss)),
		"numa_interleave":       n.bump("numa_interleave", 0.1),
		"thp_fault_alloc":       n.bump("thp_fault_alloc", d.PgFault*0.001),
		"thp_collapse_alloc":    n.bump("thp_collapse_alloc", 0.01),
	}

	// --- procstat: node-aggregate CPU jiffies ---
	totalJiffies := float64(n.Spec.Cores) * jiffiesPerSecond
	idle := 1 - d.User - d.Sys - d.IOWait - d.IRQ - d.SoftIRQ - d.Nice
	if idle < 0 {
		idle = 0
	}
	procstat := map[string]float64{
		"user":          n.bump("user", jitter(d.User*totalJiffies)),
		"nice":          n.bump("nice", d.Nice*totalJiffies),
		"sys":           n.bump("sys", jitter(d.Sys*totalJiffies)),
		"idle":          n.bump("idle", jitter(idle*totalJiffies)),
		"iowait":        n.bump("iowait", jitter(d.IOWait*totalJiffies)),
		"irq":           n.bump("irq", d.IRQ*totalJiffies),
		"softirq":       n.bump("softirq", d.SoftIRQ*totalJiffies),
		"steal":         n.bump("steal", 0),
		"guest":         n.bump("guest", 0),
		"guest_nice":    n.bump("guest_nice", 0),
		"intr":          n.bump("intr", jitter(d.Intr)),
		"ctxt":          n.bump("ctxt", jitter(d.Ctxt)),
		"processes":     n.bump("processes", d.Processes),
		"procs_running": d.ProcsRunning,
		"procs_blocked": d.ProcsBlocked,
	}

	out := map[ldms.SamplerName]map[string]float64{
		ldms.Meminfo:  meminfo,
		ldms.Vmstat:   vmstat,
		ldms.Procstat: procstat,
	}
	if n.Spec.GPUs > 0 {
		out[ldms.Dcgm] = n.stepGPU(d, jitter)
	}
	return out
}

// stepGPU expands the GPU drivers into the dcgm metric set, aggregated
// across the node's devices.
func (n *Node) stepGPU(d apps.Drivers, jitter func(float64) float64) map[string]float64 {
	fbTotal := float64(n.Spec.GPUMemKB) * float64(n.Spec.GPUs)
	fbUsed := d.GPUMemFrac * fbTotal
	powerW := d.GPUPowerW * float64(n.Spec.GPUs)
	if powerW == 0 {
		powerW = 60 * float64(n.Spec.GPUs) // idle draw
	}
	// Clocks boost with load.
	smClock := 1100 + 500*d.GPUUtil
	return map[string]float64{
		"gpu_util":        jitter(d.GPUUtil * 100),
		"mem_copy_util":   jitter(d.GPUCopyUtil * 100),
		"fb_used":         jitter(fbUsed),
		"fb_free":         fbTotal - fbUsed,
		"sm_clock":        jitter(smClock),
		"mem_clock":       877,
		"power_usage":     jitter(powerW),
		"gpu_temp":        jitter(35 + 45*d.GPUUtil),
		"memory_temp":     jitter(30 + 40*d.GPUMemFrac),
		"enc_util":        0,
		"dec_util":        0,
		"xid_errors":      0,
		"pcie_tx_bytes":   n.bump("pcie_tx_bytes", jitter(d.GPUPcieRate*0.6)),
		"pcie_rx_bytes":   n.bump("pcie_rx_bytes", jitter(d.GPUPcieRate*0.4)),
		"nvlink_tx_bytes": n.bump("nvlink_tx_bytes", jitter(d.GPUNvlink*0.5)),
		"nvlink_rx_bytes": n.bump("nvlink_rx_bytes", jitter(d.GPUNvlink*0.5)),
		"total_energy":    n.bump("total_energy", powerW), // joules at 1 Hz
		"ecc_sbe_total":   n.bump("ecc_sbe_total", 0),
		"ecc_dbe_total":   n.bump("ecc_dbe_total", 0),
	}
}

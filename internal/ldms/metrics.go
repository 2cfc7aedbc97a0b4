// Package ldms simulates the Lightweight Distributed Metric Service (LDMS)
// monitoring substrate the paper deploys on (§4.1): per-node sampler
// daemons reading metric sets (meminfo, vmstat, procstat) at 1 Hz, an
// aggregator collecting samples from every node, and the preprocessing
// conventions the analytics pipeline relies on (accumulated counters,
// occasional sample drops, namespaced metric names like
// "MemFree::meminfo").
//
// The samplers read from a NodeState that the cluster/application/anomaly
// simulation advances each second, so collected telemetry reflects exactly
// the workload and injected anomalies, as on the real systems.
package ldms

import (
	"fmt"
	"sync"
)

// SamplerName identifies one LDMS metric set.
type SamplerName string

// The three samplers the paper collects from Eclipse and Volta (§4.1),
// plus the DCGM-style GPU sampler of the heterogeneous-systems extension
// (paper §7 future work): GPU nodes report it, CPU nodes do not, which is
// exactly the metric-set heterogeneity the paper says future frameworks
// must handle.
const (
	Meminfo  SamplerName = "meminfo"
	Vmstat   SamplerName = "vmstat"
	Procstat SamplerName = "procstat"
	Dcgm     SamplerName = "dcgm"
)

// AllSamplers lists every sampler a node may report, in canonical order.
var AllSamplers = []SamplerName{Meminfo, Vmstat, Procstat, Dcgm}

// MetricDef describes one metric within a sampler set.
type MetricDef struct {
	Name    string
	Sampler SamplerName
	// Accumulated marks counters that only ever increase (e.g. procstat
	// totals, vmstat page counters); the analytics pipeline first-differences
	// them (paper §4.2.1).
	Accumulated bool
}

// QualifiedName returns the paper's "metric::sampler" notation, e.g.
// "MemFree::meminfo".
func (m MetricDef) QualifiedName() string {
	return fmt.Sprintf("%s::%s", m.Name, m.Sampler)
}

// meminfoMetrics mirrors the node-level /proc/meminfo fields (gauges, KB).
var meminfoMetrics = []string{
	"MemTotal", "MemFree", "MemAvailable", "Buffers", "Cached", "SwapCached",
	"Active", "Inactive", "Active_anon", "Inactive_anon", "Active_file",
	"Inactive_file", "Unevictable", "Mlocked", "SwapTotal", "SwapFree",
	"Dirty", "Writeback", "AnonPages", "Mapped", "Shmem", "Slab",
	"SReclaimable", "SUnreclaim", "KernelStack", "PageTables", "NFS_Unstable",
	"Bounce", "WritebackTmp", "CommitLimit", "Committed_AS", "VmallocTotal",
	"VmallocUsed", "VmallocChunk", "HardwareCorrupted", "AnonHugePages",
	"HugePages_Total", "HugePages_Free", "DirectMap4k", "DirectMap2M",
	"DirectMap1G",
}

// vmstatGauges are /proc/vmstat fields reported as instantaneous values.
var vmstatGauges = []string{
	"nr_free_pages", "nr_inactive_anon", "nr_active_anon", "nr_inactive_file",
	"nr_active_file", "nr_unevictable", "nr_mlock", "nr_anon_pages",
	"nr_mapped", "nr_file_pages", "nr_dirty", "nr_writeback",
	"nr_slab_reclaimable", "nr_slab_unreclaimable", "nr_page_table_pages",
	"nr_kernel_stack", "nr_bounce", "nr_shmem", "nr_dirtied", "nr_written",
}

// vmstatCounters are /proc/vmstat fields accumulated since boot.
var vmstatCounters = []string{
	"pgpgin", "pgpgout", "pswpin", "pswpout", "pgalloc_normal", "pgfree",
	"pgactivate", "pgdeactivate", "pgfault", "pgmajfault", "pgrefill_normal",
	"pgsteal_kswapd_normal", "pgsteal_direct_normal", "pgscan_kswapd_normal",
	"pgscan_direct_normal", "pginodesteal", "slabs_scanned", "kswapd_inodesteal",
	"pageoutrun", "allocstall", "pgrotated", "numa_hit", "numa_miss",
	"numa_local", "numa_foreign", "numa_interleave", "thp_fault_alloc",
	"thp_collapse_alloc",
}

// procstatMetrics are node-level aggregate CPU fields from /proc/stat, all
// accumulated jiffy counters, plus a few instantaneous fields. Per-core
// metrics are deliberately absent: the paper excludes them for their
// OS-scheduling-induced fluctuations (§5.4.1).
var procstatCounters = []string{
	"user", "nice", "sys", "idle", "iowait", "irq", "softirq", "steal",
	"guest", "guest_nice", "intr", "ctxt", "processes",
}

var procstatGauges = []string{
	"procs_running", "procs_blocked",
}

// dcgmGauges are the instantaneous GPU metrics (aggregated across a node's
// devices, mirroring the node-level-aggregate convention of §5.4.1).
var dcgmGauges = []string{
	"gpu_util", "mem_copy_util", "fb_used", "fb_free", "sm_clock",
	"mem_clock", "power_usage", "gpu_temp", "memory_temp", "enc_util",
	"dec_util", "xid_errors",
}

// dcgmCounters are accumulated GPU counters.
var dcgmCounters = []string{
	"pcie_tx_bytes", "pcie_rx_bytes", "nvlink_tx_bytes", "nvlink_rx_bytes",
	"total_energy", "ecc_sbe_total", "ecc_dbe_total",
}

// GPUSchema returns the metric definitions of the dcgm sampler. They are
// not part of Schema(): only GPU nodes report them.
func GPUSchema() []MetricDef {
	var defs []MetricDef
	for _, m := range dcgmGauges {
		defs = append(defs, MetricDef{Name: m, Sampler: Dcgm})
	}
	for _, m := range dcgmCounters {
		defs = append(defs, MetricDef{Name: m, Sampler: Dcgm, Accumulated: true})
	}
	return defs
}

// Schema returns the full node-level metric schema: every metric definition
// across the three samplers, in canonical order. The count lands in the
// same regime as the paper's 156 node-level metrics.
func Schema() []MetricDef {
	var defs []MetricDef
	for _, m := range meminfoMetrics {
		defs = append(defs, MetricDef{Name: m, Sampler: Meminfo})
	}
	for _, m := range vmstatGauges {
		defs = append(defs, MetricDef{Name: m, Sampler: Vmstat})
	}
	for _, m := range vmstatCounters {
		defs = append(defs, MetricDef{Name: m, Sampler: Vmstat, Accumulated: true})
	}
	for _, m := range procstatCounters {
		defs = append(defs, MetricDef{Name: m, Sampler: Procstat, Accumulated: true})
	}
	for _, m := range procstatGauges {
		defs = append(defs, MetricDef{Name: m, Sampler: Procstat})
	}
	return defs
}

// AccumulatedNames returns the qualified names of all accumulated counters
// (CPU and GPU samplers), the list the preprocessing stage
// first-differences. Differencing ignores absent columns, so including the
// GPU counters is harmless for CPU-only nodes. The list is built once and
// shared by every caller, so callers must not modify it.
func AccumulatedNames() []string { return accumulatedNames() }

var accumulatedNames = sync.OnceValue(func() []string {
	var out []string
	for _, d := range append(Schema(), GPUSchema()...) {
		if d.Accumulated {
			out = append(out, d.QualifiedName())
		}
	}
	return out
})

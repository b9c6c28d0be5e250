// Package gpusim executes VPTX programs under a SIMT machine model: 32-wide
// warps in lockstep, a reconvergence stack driven by immediate
// post-dominators, a coalescing global-memory model, and an instruction
// cache whose misses model the fetch stalls the paper observes on heavily
// unrolled-and-unmerged code. It produces the nvprof-style counters the
// paper's in-depth analysis uses: inst_misc, inst_control,
// warp_execution_efficiency, stall_inst_fetch, gld_transactions, and IPC.
package gpusim

// DeviceConfig parameterizes the simulated GPU.
type DeviceConfig struct {
	// WarpSize is the SIMT width (32 on all NVIDIA parts).
	WarpSize int
	// NumSMs divides total warp cycles into wall-clock kernel time.
	NumSMs int
	// ClockGHz converts cycles to time.
	ClockGHz float64
	// MemLoadLatency is the raw latency of a global load; dependent uses
	// expose a StallExposure fraction of it (the rest is hidden by other
	// warps).
	MemLoadLatency float64
	// StallExposure is the fraction of dependency-stall cycles that are not
	// hidden by other resident warps (scoreboard model).
	StallExposure float64
	// MemPerTransaction is the additional cost of each 32-byte memory
	// transaction a (possibly uncoalesced) warp access splits into.
	MemPerTransaction int64
	// SegmentBytes is the coalescing granularity.
	SegmentBytes int64
	// ICacheLineInstrs is the number of instructions per icache line.
	ICacheLineInstrs int
	// ICacheLines is the capacity of the (LRU) instruction cache in lines.
	ICacheLines int
	// ICacheMissCycles is the fetch stall charged per icache miss.
	ICacheMissCycles int64
	// ITSOverlap models Volta's independent thread scheduling: divergent
	// sub-warp instructions overlap with other sub-warps and warps, so a
	// warp instruction with few active lanes costs less than a full-width
	// one. Effective issue cost = issue * (1 - ITSOverlap*(1 - active/32)).
	// 0 reproduces pre-Volta lockstep serialization.
	ITSOverlap float64
	// MaxWarpSteps bounds the instructions a single warp may execute before
	// the run is abandoned with ErrCycleBudget. 0 selects the package-level
	// MaxWarpSteps default, which no terminating kernel approaches; the
	// fuzzer sets a small budget so a miscompiled loop fails fast instead
	// of hanging the campaign.
	MaxWarpSteps int64
	// Policy selects the divergence-management backend. The zero value is
	// the IPDOM reconvergence stack (the original model), so existing
	// DeviceConfig literals are unaffected. See PolicyKind and the device
	// registry (registry.go) for the other backends.
	Policy PolicyKind
}

// V100 returns a configuration loosely modelled after the NVIDIA V100 the
// paper evaluates on: 80 SMs at 1.38 GHz, a ~12 KiB L1 instruction cache,
// and effective memory latencies assuming reasonable occupancy.
func V100() DeviceConfig {
	return DeviceConfig{
		WarpSize:          32,
		NumSMs:            80,
		ClockGHz:          1.38,
		MemLoadLatency:    160,
		StallExposure:     0.12,
		MemPerTransaction: 2,
		SegmentBytes:      32,
		ICacheLineInstrs:  8,
		ICacheLines:       192, // 192 lines * 8 instrs * 8 B = 12 KiB
		ICacheMissCycles:  16,
		ITSOverlap:        0.85,
	}
}

// Metrics aggregates the dynamic counters of one kernel launch.
type Metrics struct {
	Cycles       int64
	WarpInstrs   int64
	ThreadInstrs int64
	// ClassThread counts per-thread executed instructions per class
	// (indexed by codegen.Class): nvprof's inst_misc is ClassThread[Misc],
	// inst_control is ClassThread[Control].
	ClassThread [5]int64
	// ActiveSum accumulates the number of active threads per issued warp
	// instruction; with WarpInstrs it yields warp_execution_efficiency.
	ActiveSum int64

	GldTransactions int64
	GstTransactions int64
	GldBytes        int64
	GstBytes        int64
	StallInstFetch  int64 // cycles lost to instruction fetch
	DepStallCycles  int64 // exposed dependency-stall cycles (scoreboard)
	Warps           int64
}

// IPC is thread-instructions retired per cycle — the throughput measure the
// paper reports increasing by 1.88x on XSBench under u&u.
func (m *Metrics) IPC() float64 {
	if m.Cycles == 0 {
		return 0
	}
	return float64(m.ThreadInstrs) / float64(m.Cycles)
}

// WarpExecutionEfficiency is the average fraction of active threads per
// issued warp instruction (nvprof warp_execution_efficiency).
func (m *Metrics) WarpExecutionEfficiency(cfg DeviceConfig) float64 {
	if m.WarpInstrs == 0 {
		return 0
	}
	return float64(m.ActiveSum) / float64(m.WarpInstrs*int64(cfg.WarpSize))
}

// StallInstFetchPct is the fraction of cycles lost to instruction fetch.
func (m *Metrics) StallInstFetchPct() float64 {
	if m.Cycles == 0 {
		return 0
	}
	return float64(m.StallInstFetch) / float64(m.Cycles)
}

// KernelMillis converts accumulated warp cycles into wall-clock kernel time,
// spreading warps across the SMs.
func (m *Metrics) KernelMillis(cfg DeviceConfig) float64 {
	perSM := float64(m.Cycles) / float64(cfg.NumSMs)
	return perSM / (cfg.ClockGHz * 1e6)
}

// Add accumulates other into m (used when sampling scales partial runs).
func (m *Metrics) Add(o *Metrics) {
	m.Cycles += o.Cycles
	m.WarpInstrs += o.WarpInstrs
	m.ThreadInstrs += o.ThreadInstrs
	for i := range m.ClassThread {
		m.ClassThread[i] += o.ClassThread[i]
	}
	m.ActiveSum += o.ActiveSum
	m.GldTransactions += o.GldTransactions
	m.GstTransactions += o.GstTransactions
	m.GldBytes += o.GldBytes
	m.GstBytes += o.GstBytes
	m.StallInstFetch += o.StallInstFetch
	m.DepStallCycles += o.DepStallCycles
	m.Warps += o.Warps
}

// Scale multiplies all counters by k (sampling extrapolation).
func (m *Metrics) Scale(k float64) {
	mul := func(v *int64) { *v = int64(float64(*v) * k) }
	mul(&m.Cycles)
	mul(&m.WarpInstrs)
	mul(&m.ThreadInstrs)
	for i := range m.ClassThread {
		mul(&m.ClassThread[i])
	}
	mul(&m.ActiveSum)
	mul(&m.GldTransactions)
	mul(&m.GstTransactions)
	mul(&m.GldBytes)
	mul(&m.GstBytes)
	mul(&m.StallInstFetch)
	mul(&m.DepStallCycles)
	mul(&m.Warps)
}

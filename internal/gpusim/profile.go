package gpusim

import "uu/internal/codegen"

// ProfCounter indexes one per-PC counter array of a Profile. The hotspot
// profiler accumulates these while a kernel runs and internal/profile joins
// them with the program's line table (codegen.Program.Lines) to attribute
// cost to source lines and loops.
type ProfCounter int

// The per-PC counters. The *_fp counters are fixed-point with ProfFPScale
// fractional steps: each executed instruction contributes a whole number of
// steps, so the totals are sums of integers and a profile does not depend on
// the order its contributions were added in.
const (
	// ProfIssueCycles is issue cost charged at each PC (fixed-point,
	// ProfFPScale steps per cycle; issue scales with the active-lane count
	// under independent thread scheduling, hence the fraction).
	ProfIssueCycles ProfCounter = iota
	// ProfDepStall is exposed dependency-stall (scoreboard) cycles charged
	// while issuing each PC (fixed-point, ProfFPScale steps per cycle).
	ProfDepStall
	// ProfFetchStall is instruction-fetch stall cycles charged at each PC
	// (whole cycles: every icache miss costs ICacheMissCycles).
	ProfFetchStall
	// ProfWarpExecs counts warp-level executions of each PC.
	ProfWarpExecs
	// ProfThreadExecs counts thread-level executions (active lanes summed
	// over warp executions) of each PC.
	ProfThreadExecs
	// ProfDivergeEvents counts, at each conditional-branch PC, executions
	// where both sides had active lanes — the divergences the reconvergence
	// stack must later repair.
	ProfDivergeEvents
	// ProfReconvEvents counts, at the first PC of each block, stack entries
	// that reached this block as their reconvergence point.
	ProfReconvEvents
	// ProfMemTransactions counts the memory transactions each ld/st PC
	// issued after coalescing.
	ProfMemTransactions
	// ProfMemIdeal counts the minimum transactions each ld/st PC could have
	// issued if its accesses were perfectly coalesced; the excess of
	// ProfMemTransactions over this is replay caused by scattered addresses.
	ProfMemIdeal
	// ProfBarrierWaits counts, at the first PC of each reconvergence block,
	// thread-group arrivals at a per-warp convergence barrier that had to
	// wait for sibling groups (MinSP-PC policy only; always 0 under IPDOM
	// and Vortex, whose joins are stack pops).
	ProfBarrierWaits

	ProfNumCounters
)

// ProfFPScale is the fixed-point scale of the *_fp counters: stored values
// are cycles times ProfFPScale, rounded per executed instruction.
const ProfFPScale = 256

// String returns the counter's snake_case report name. Every name returned
// here must be documented in docs/METRICS.md (enforced by a CI lint).
func (c ProfCounter) String() string {
	switch c {
	case ProfIssueCycles:
		return "issue_cycles"
	case ProfDepStall:
		return "dep_stall_cycles"
	case ProfFetchStall:
		return "fetch_stall_cycles"
	case ProfWarpExecs:
		return "warp_execs"
	case ProfThreadExecs:
		return "thread_execs"
	case ProfDivergeEvents:
		return "divergence_events"
	case ProfReconvEvents:
		return "reconvergence_events"
	case ProfMemTransactions:
		return "mem_transactions"
	case ProfMemIdeal:
		return "mem_ideal_transactions"
	case ProfBarrierWaits:
		return "barrier_wait_events"
	}
	return "?"
}

// Profile holds the per-PC hotspot counters of one kernel execution. PCs are
// the flat global instruction index (blocks in layout order, instructions in
// block order) — the same index codegen.Program.Lines and the simulator's
// decoded program use, so Counters[c][pc] joins with
// Lines[pc] directly.
//
// All counters are int64 and all accumulation is integer addition.
type Profile struct {
	Kernel   string
	Counters [ProfNumCounters][]int64
}

// NewProfile returns an empty profile sized for the program. Allocating the
// counter arrays up front keeps the simulator's warp loop allocation-free
// while profiling.
func NewProfile(p *codegen.Program) *Profile {
	return newProfileN(p.Name, p.NumInstrs())
}

func newProfileN(kernel string, numPCs int) *Profile {
	prof := &Profile{Kernel: kernel}
	for c := range prof.Counters {
		prof.Counters[c] = make([]int64, numPCs)
	}
	return prof
}

// NumPCs returns the number of program counters covered.
func (p *Profile) NumPCs() int { return len(p.Counters[0]) }

// Scale multiplies all counters by k — the same sampling extrapolation
// Metrics.Scale applies when Launch.SampleWarps truncates the grid.
func (p *Profile) Scale(k float64) {
	for c := range p.Counters {
		dst := p.Counters[c]
		for i := range dst {
			dst[i] = int64(float64(dst[i]) * k)
		}
	}
}

// Cycles returns the total modelled cycles attributed to pc: issue plus
// exposed dependency stalls (rounded from fixed point) plus fetch stalls.
func (p *Profile) Cycles(pc int) int64 {
	fp := p.Counters[ProfIssueCycles][pc] + p.Counters[ProfDepStall][pc]
	return (fp+ProfFPScale/2)/ProfFPScale + p.Counters[ProfFetchStall][pc]
}

// profFP converts a per-instruction cycle contribution to fixed point.
func profFP(v float64) int64 { return int64(v*ProfFPScale + 0.5) }

// idealTransactions is the minimum transaction count a warp access of n
// lanes times size bytes could coalesce into.
func idealTransactions(n int, size, segBytes int64) int64 {
	tx := (int64(n)*size + segBytes - 1) / segBytes
	if tx < 1 {
		tx = 1
	}
	return tx
}

package analysis

import (
	"fmt"
	"strings"

	"uu/internal/ir"
	"uu/internal/remark"
)

// AnalysisID identifies one of the two analyses the AnalysisManager caches:
// the ones passes reuse from one query to the next. Everything else a pass
// needs (divergence, alias classes) it computes where it asks.
type AnalysisID int

// The managed analyses.
const (
	DomTreeID AnalysisID = iota
	LoopInfoID
	numAnalyses
)

var analysisNames = [numAnalyses]string{"domtree", "loopinfo"}

// String returns the analysis's short name as used in cache statistics.
func (id AnalysisID) String() string { return analysisNames[id] }

// PreservedAnalyses is a pass's declaration of what it did to the function,
// in the style of LLVM's new pass manager: whether it changed the function at
// all — the signal the pipeline's change-driven fixpoint driver keys on — and,
// if it did, whether the control-flow graph, and with it both cached trees,
// survived.
type PreservedAnalyses struct {
	changed, keepCFG bool
}

// Unchanged reports that the pass did not modify the function; every cached
// analysis remains valid.
func Unchanged() PreservedAnalyses { return PreservedAnalyses{} }

// PreserveNone reports a change that invalidates every cached analysis —
// the declaration of CFG-restructuring passes (SimplifyCFG, unroll, unmerge).
func PreserveNone() PreservedAnalyses { return PreservedAnalyses{changed: true} }

// PreserveCFG reports a change that only touched instructions, not the
// control-flow graph: the dominator tree and loop info stay valid.
func PreserveCFG() PreservedAnalyses { return PreservedAnalyses{changed: true, keepCFG: true} }

// If returns whenChanged when changed is true and Unchanged otherwise — the
// common tail of a converted pass.
func If(changed bool, whenChanged PreservedAnalyses) PreservedAnalyses {
	if !changed {
		return Unchanged()
	}
	return whenChanged
}

// Changed reports whether the pass modified the function.
func (pa PreservedAnalyses) Changed() bool { return pa.changed }

// Pass is the common interface of all transformation passes: run on a
// function, consuming cached analyses from the manager, and declare which
// analyses were preserved. Callers must hand the returned value to
// AnalysisManager.Invalidate (the pipeline driver does this).
type Pass interface {
	Name() string
	Run(f *ir.Function, am *AnalysisManager) PreservedAnalyses
}

// CacheStats counts analysis cache traffic: Hits (a query answered from
// cache), Misses (a query that had to compute), and Invalidated (a cached
// result dropped by Invalidate). Indexed by AnalysisID.
type CacheStats struct {
	Hits        [numAnalyses]int
	Misses      [numAnalyses]int
	Invalidated [numAnalyses]int
}

// TotalHits sums hits across analyses.
func (s *CacheStats) TotalHits() int { return sum(s.Hits) }

// TotalMisses sums misses across analyses.
func (s *CacheStats) TotalMisses() int { return sum(s.Misses) }

// TotalInvalidated sums invalidations across analyses.
func (s *CacheStats) TotalInvalidated() int { return sum(s.Invalidated) }

// HitRate is hits / (hits+misses), or 0 with no queries.
func (s *CacheStats) HitRate() float64 {
	h, m := s.TotalHits(), s.TotalMisses()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// Sub returns the counter deltas s - o. With o a snapshot taken before a
// pass and s one taken after, the result is the traffic attributable to
// that pass (counters are monotonically increasing).
func (s CacheStats) Sub(o CacheStats) CacheStats {
	var d CacheStats
	for i := 0; i < int(numAnalyses); i++ {
		d.Hits[i] = s.Hits[i] - o.Hits[i]
		d.Misses[i] = s.Misses[i] - o.Misses[i]
		d.Invalidated[i] = s.Invalidated[i] - o.Invalidated[i]
	}
	return d
}

// String formats the per-analysis counters, skipping unqueried analyses.
func (s *CacheStats) String() string {
	var b strings.Builder
	for id := AnalysisID(0); id < numAnalyses; id++ {
		if s.Hits[id]+s.Misses[id]+s.Invalidated[id] == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s:%dh/%dm/%di", id, s.Hits[id], s.Misses[id], s.Invalidated[id])
	}
	return b.String()
}

func sum(a [numAnalyses]int) int {
	t := 0
	for _, v := range a {
		t += v
	}
	return t
}

// AnalysisManager lazily computes and caches the per-function analyses for
// one function. Passes query analyses through it instead of constructing
// them directly; the pipeline driver invalidates after each pass according
// to the pass's PreservedAnalyses declaration. Passes that mutate the
// function mid-run (e.g. loop transforms re-resolving loops after each
// structural edit) call InvalidateAll themselves before re-querying.
//
// A manager is bound to a single function and is not safe for concurrent
// use; the experiment harness gives each compilation its own manager.
type AnalysisManager struct {
	f     *ir.Function
	valid [numAnalyses]bool

	domTree  *DomTree
	loopInfo *LoopInfo

	stats CacheStats

	// remarks is the compilation's optimization-remark sink. The manager
	// carries it so every pass reaches the sink through the *AnalysisManager
	// it already receives, without widening the Pass interface. Nil (the
	// default) disables emission.
	remarks *remark.Collector
}

// NewAnalysisManager returns an empty manager for f.
func NewAnalysisManager(f *ir.Function) *AnalysisManager {
	return &AnalysisManager{f: f}
}

// Function returns the function the manager is bound to.
func (am *AnalysisManager) Function() *ir.Function { return am.f }

// SetRemarks attaches the compilation's remark sink. Passing nil disables
// emission (the default).
func (am *AnalysisManager) SetRemarks(c *remark.Collector) { am.remarks = c }

// Remarks returns the attached remark sink; nil means disabled. Emission
// sites guard on Remarks().Enabled() — safe on the nil collector — before
// building a remark.
func (am *AnalysisManager) Remarks() *remark.Collector { return am.remarks }

func (am *AnalysisManager) hit(id AnalysisID) bool {
	if am.valid[id] {
		am.stats.Hits[id]++
		return true
	}
	am.stats.Misses[id]++
	am.valid[id] = true
	return false
}

// DomTree returns the cached dominator tree, computing it on a miss.
func (am *AnalysisManager) DomTree() *DomTree {
	if !am.hit(DomTreeID) {
		am.domTree = NewDomTree(am.f)
	}
	return am.domTree
}

// LoopInfo returns the cached loop forest (computed over the cached
// dominator tree).
func (am *AnalysisManager) LoopInfo() *LoopInfo {
	if !am.hit(LoopInfoID) {
		am.loopInfo = NewLoopInfo(am.f, am.DomTree())
	}
	return am.loopInfo
}

// Invalidate drops both cached trees unless the pass left the CFG as it
// found it.
func (am *AnalysisManager) Invalidate(pa PreservedAnalyses) {
	if !pa.changed || pa.keepCFG {
		return
	}
	for id, valid := range am.valid {
		if valid {
			am.valid[id] = false
			am.stats.Invalidated[id]++
		}
	}
	// Release dropped results for the GC.
	am.domTree, am.loopInfo = nil, nil
}

// InvalidateAll drops every cached analysis — for callers that mutated the
// CFG outside a Pass boundary.
func (am *AnalysisManager) InvalidateAll() { am.Invalidate(PreserveNone()) }

// Stats returns a copy of the accumulated cache counters.
func (am *AnalysisManager) Stats() CacheStats { return am.stats }

package transform

import (
	"uu/internal/analysis"
	"uu/internal/ir"
)

// licm hoists loop-invariant speculatable computations (and loads that no
// store in the loop may clobber) into the loop preheader. Innermost loops
// are processed first so invariants bubble outward. It invalidates the
// manager whenever it inserts a preheader, so every dominance query below
// sees the current CFG — but queries between mutations share one cached tree
// instead of recomputing per query.
func licm(f *ir.Function, am *analysis.AnalysisManager) bool {
	li := am.LoopInfo()
	// Innermost first: LoopInfo orders outer loops before inner, so reverse.
	// Snapshot the loop list: hoistLoop may invalidate the manager.
	loops := append([]*analysis.Loop(nil), li.Loops...)
	changed := false
	for i := len(loops) - 1; i >= 0; i-- {
		if hoistLoop(f, am, loops[i]) {
			changed = true
		}
	}
	return changed
}

func hoistLoop(f *ir.Function, am *analysis.AnalysisManager, l *analysis.Loop) bool {
	changed := false
	if l.Preheader() == nil {
		EnsurePreheader(f, l)
		am.InvalidateAll() // new block and rerouted edges
		changed = true
	}
	ph := l.Preheader()
	invariant := map[ir.Value]bool{}
	isInv := func(v ir.Value) bool {
		if invariant[v] {
			return true
		}
		in, ok := v.(*ir.Instr)
		if !ok {
			return true // constants and parameters
		}
		return !l.Contains(in.Block())
	}

	// Loop stores / barriers for load hoisting decisions.
	var storedPtrs []ir.Value
	hasClobberAll := false
	for _, b := range l.Blocks() {
		for _, in := range b.Instrs() {
			switch in.Op {
			case ir.OpStore:
				storedPtrs = append(storedPtrs, in.Arg(1))
			case ir.OpBarrier:
				hasClobberAll = true
			}
		}
	}
	loadSafe := func(p ir.Value) bool {
		if hasClobberAll {
			return false
		}
		for _, sp := range storedPtrs {
			if analysis.Alias(p, sp) != analysis.NoAlias {
				return false
			}
		}
		return true
	}

	for again := true; again; {
		again = false
		for _, b := range l.Blocks() {
			for _, in := range append([]*ir.Instr(nil), b.Instrs()...) {
				if in.Block() == nil || in.IsPhi() || in.IsTerminator() {
					continue
				}
				allInv := true
				for i := 0; i < in.NumArgs(); i++ {
					if !isInv(in.Arg(i)) {
						allInv = false
						break
					}
				}
				if !allInv {
					continue
				}
				hoistable := in.IsSpeculatable() ||
					(in.Op == ir.OpLoad && loadSafe(in.Arg(0)) && executesOnEveryIteration(am, l, b))
				if !hoistable {
					continue
				}
				b.Remove(in)
				ph.InsertBefore(in, ph.Term())
				invariant[in] = true
				changed = true
				again = true
			}
		}
	}
	return changed
}

// executesOnEveryIteration approximates "safe to speculate the load before
// the loop": the block must dominate every latch (it executes whenever an
// iteration completes), so the load would have executed anyway provided the
// loop body runs at least once. Hoisting into the preheader of a loop that
// may run zero times would introduce a load that never executed; we accept
// this for kernels (device loads do not fault in our memory model).
func executesOnEveryIteration(am *analysis.AnalysisManager, l *analysis.Loop, b *ir.Block) bool {
	if b == l.Header {
		return true
	}
	dt := am.DomTree()
	for _, latch := range l.Latches() {
		if !dt.Dominates(b, latch) {
			return false
		}
	}
	return true
}

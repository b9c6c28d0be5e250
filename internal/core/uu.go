package core

import (
	"fmt"

	"uu/internal/analysis"
	"uu/internal/ir"
	"uu/internal/remark"
	"uu/internal/transform"
)

// UnrollAndUnmerge applies the paper's u&u transformation to the loop with
// the given deterministic ID (see analysis.LoopInfo): inner loops are
// unmerged (not unrolled), the target loop is unrolled by factor, and the
// resulting body is unmerged. factor == 1 performs unmerging only — the
// paper's `unmerge` comparator configuration.
//
// It returns whether the function changed, and an error when the loop ID
// does not exist or the loop is not transformable (convergent operations,
// no unique latch).
func UnrollAndUnmerge(f *ir.Function, loopID, factor int, opts Options) (bool, error) {
	return UnrollAndUnmergeWith(analysis.NewAnalysisManager(f), loopID, factor, opts, new(Scratch))
}

// UnrollAndUnmergeWith is UnrollAndUnmerge sharing the caller's analysis
// manager (and operating on the function it is bound to), so already-cached
// analyses are reused for loop resolution, and unmerging in s. Callers must
// treat the manager as fully invalid afterwards: the transformation
// normalizes loops (preheader, LCSSA) even on paths that end in an error.
func UnrollAndUnmergeWith(am *analysis.AnalysisManager, loopID, factor int, opts Options, s *Scratch) (bool, error) {
	f := am.Function()
	li := am.LoopInfo()
	l := li.LoopByID(loopID)
	if l == nil {
		return false, fmt.Errorf("core: function %s has no loop #%d (%d loops)", f.Name, loopID, len(li.Loops))
	}
	return uuLoop(f, am, l, factor, opts, s)
}

// uuLoop is UnrollAndUnmerge on a resolved loop.
func uuLoop(f *ir.Function, am *analysis.AnalysisManager, l *analysis.Loop, factor int, opts Options, s *Scratch) (bool, error) {
	rc := am.Remarks()
	emit := func(kind remark.Kind, name, block string, args ...remark.Arg) {
		if !rc.Enabled() {
			return
		}
		rc.Emit(remark.Remark{
			Kind: kind, Pass: "uu", Name: name,
			Function: f.Name, Block: block,
			Args: append([]remark.Arg{remark.Int("Loop", int64(l.ID))}, args...),
		})
	}
	if l.HasConvergentOp() {
		emit(remark.Missed, "ConvergentOp", l.Header.Name)
		return false, fmt.Errorf("core: loop #%d contains a convergent operation", l.ID)
	}
	if l.Latch() == nil {
		emit(remark.Missed, "MultipleLatches", l.Header.Name)
		return false, fmt.Errorf("core: loop #%d has multiple latches", l.ID)
	}
	changed := false

	// Unmerge inner loops first (the paper: "inner loops are only unmerged,
	// not unrolled"). Headers identify loops across recomputation.
	innerHeaders := innerLoopHeaders(l)
	for _, h := range innerHeaders {
		// Structures may have changed; re-resolve through the manager
		// (unmerge invalidates it whenever it mutates).
		inner := loopWithHeader(am.LoopInfo(), h)
		if inner == nil {
			continue
		}
		if unmerge(f, am, inner, opts, s) {
			changed = true
			emit(remark.Passed, "InnerLoopUnmerged", h.Name)
		}
		am.InvalidateAll() // unmerge may normalize the loop even when !changed
	}

	header := l.Header
	if factor >= 2 {
		tl := loopWithHeader(am.LoopInfo(), header)
		if tl == nil {
			return changed, fmt.Errorf("core: loop header %s vanished", header.Name)
		}
		ok := transform.UnrollLoopWithOrigins(f, tl, factor, opts.Origins, &s.cloner)
		am.InvalidateAll() // UnrollLoop normalizes the loop even on failure
		if !ok {
			emit(remark.Missed, "UnrollFailed", header.Name, remark.Int("Factor", int64(factor)))
			return changed, fmt.Errorf("core: loop #%d could not be unrolled", l.ID)
		}
		changed = true
		emit(remark.Passed, "Unrolled", header.Name, remark.Int("Factor", int64(factor)))
	}

	tl := loopWithHeader(am.LoopInfo(), header)
	if tl == nil {
		return changed, fmt.Errorf("core: loop header %s vanished after unrolling", header.Name)
	}
	if unmerge(f, am, tl, opts, s) {
		changed = true
		emit(remark.Passed, "Unmerged", header.Name)
	}
	am.InvalidateAll()
	return changed, nil
}

// innerLoopHeaders collects the headers of all loops nested in l, deepest
// first, so callers process innermost loops before their parents.
func innerLoopHeaders(l *analysis.Loop) []*ir.Block {
	var out []*ir.Block
	var collect func(x *analysis.Loop)
	collect = func(x *analysis.Loop) {
		for _, c := range x.Children {
			collect(c)
			out = append(out, c.Header)
		}
	}
	collect(l)
	return out
}

func loopWithHeader(li *analysis.LoopInfo, h *ir.Block) *analysis.Loop {
	for _, l := range li.Loops {
		if l.Header == h {
			return l
		}
	}
	return nil
}

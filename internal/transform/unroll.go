package transform

import (
	"fmt"

	"uu/internal/analysis"
	"uu/internal/ir"
	"uu/internal/remark"
)

// UnrollLoop unrolls l by the given factor (>= 2), keeping every exit test:
// the new loop body is `factor` chained copies of the original body, each
// still able to leave the loop early. This multi-exit ("peeled-iteration")
// unrolling handles non-counted loops such as XSBench's binary search, which
// is exactly the setting of the paper's unroll-and-unmerge.
//
// Requirements: l must have a unique latch. The function is put into
// preheader + LCSSA form first. Returns false (leaving f untouched) when the
// loop shape is unsupported.
func UnrollLoop(f *ir.Function, l *analysis.Loop, factor int) bool {
	return UnrollLoopWithOrigins(f, l, factor, nil, new(ir.Cloner))
}

// UnrollLoopWithOrigins is UnrollLoop copying the body through c,
// additionally recording in origins the original instruction each clone
// stems from (transitively through earlier recorded clones). Used for
// provenance reporting, and by u&u, which hands over the Cloner its
// unmerger's tail copies go through.
func UnrollLoopWithOrigins(f *ir.Function, l *analysis.Loop, factor int, origins map[*ir.Instr]*ir.Instr, c *ir.Cloner) bool {
	if factor < 2 {
		return false
	}
	latch := l.Latch()
	if latch == nil {
		return false
	}
	EnsurePreheader(f, l)
	EnsureLCSSA(f, l)
	if !loopIsClosed(l) {
		return false // LCSSA could not be established (ambiguous exits)
	}

	header := l.Header
	loopBlocks := append([]*ir.Block(nil), l.Blocks()...)

	// Snapshot exit-block phi incomings from inside the loop, so each copy
	// can add matching incomings (LCSSA guarantees all loop values escape
	// through these phis).
	type exitInc struct {
		phi  *ir.Instr
		from *ir.Block
		val  ir.Value
	}
	var exitIncs []exitInc
	for _, e := range l.ExitBlocks() {
		for _, phi := range e.Phis() {
			for i := 0; i < phi.NumArgs(); i++ {
				if l.Contains(phi.BlockArg(i)) {
					exitIncs = append(exitIncs, exitInc{phi, phi.BlockArg(i), phi.Arg(i)})
				}
			}
		}
	}

	// Clone every copy from the pristine original body first, so each clone's
	// back edge is self-contained (cloned latch -> cloned header). Rewiring
	// afterwards chains them: L -> H1, L1 -> H2, ..., L_{u-1} -> H. The one
	// Cloner answers only for the copy it made last, so right after making
	// each copy we keep what chaining needs: its header and latch, and each
	// header phi with the copy's version of its back-edge value. Copy 0 is
	// the original body.
	type bodyCopy struct {
		header, latch *ir.Block
		phis          []*ir.Instr
		latchVals     []ir.Value
	}
	copies := make([]bodyCopy, factor)
	copies[0] = bodyCopy{header: header, latch: latch, phis: append([]*ir.Instr(nil), header.Phis()...)}
	for _, phi := range copies[0].phis {
		copies[0].latchVals = append(copies[0].latchVals, phi.PhiIncoming(latch))
	}
	for j := 1; j < factor; j++ {
		c.Clone(loopBlocks, fmt.Sprintf(".u%d", j))
		for _, b := range loopBlocks {
			for k, in := range b.Instrs() {
				ci := c.Block(b).Instrs()[k]
				// Stamp each clone with its iteration tag so the profiler can
				// attribute cycles to individual unrolled copies of a source line.
				loc := ci.Loc()
				loc.Iter = int32(j)
				ci.SetLoc(loc)
				if origins != nil {
					root := in
					if r, ok := origins[root]; ok {
						root = r
					}
					origins[ci] = root
				}
			}
		}
		for _, ei := range exitIncs {
			ei.phi.PhiAddIncoming(c.Value(ei.val), c.Block(ei.from))
		}
		cp := bodyCopy{header: c.Block(header), latch: c.Block(latch)}
		for k, phi := range copies[0].phis {
			cp.phis = append(cp.phis, c.Value(phi).(*ir.Instr))
			cp.latchVals = append(cp.latchVals, c.Value(copies[0].latchVals[k]))
		}
		copies[j] = cp
	}
	for j := 1; j < factor; j++ {
		prev, cp := copies[j-1], copies[j]
		// Chain the previous copy's back edge into this copy's header.
		prev.latch.ReplaceSucc(prev.header, cp.header)
		// This copy's header has one real predecessor (the previous latch),
		// so each cloned header phi resolves to the previous copy's
		// back-edge value — and so does a back-edge value that is one of
		// those phis.
		for k, phi := range cp.phis {
			phi.ReplaceAllUsesWith(prev.latchVals[k])
			cp.header.Erase(phi)
			for m, v := range cp.latchVals {
				if v == ir.Value(phi) {
					cp.latchVals[m] = prev.latchVals[k]
				}
			}
		}
	}
	// Close the chain: the last copy's latch branches back to the original
	// header, which now carries the last copy's back-edge values.
	last := copies[factor-1]
	last.latch.ReplaceSucc(last.header, header)
	for k, phi := range copies[0].phis {
		phi.PhiRemoveIncoming(latch)
		phi.PhiAddIncoming(last.latchVals[k], last.latch)
	}
	return true
}

// AutoUnrollMaxTrip and AutoUnrollMaxSize bound the baseline pipeline's full
// unrolling, mirroring LLVM's -O3 full-unroll thresholds in spirit.
const (
	AutoUnrollMaxTrip = 32
	AutoUnrollMaxSize = 512
)

// autoUnroll is the baseline pipeline's loop unroller: it fully unrolls
// loops with a small constant trip count (SCCP + SimplifyCFG then evaluate
// away the chained exit tests and the dead back edge). Loops whose header
// blocks are in skip are left alone — the paper's pass excludes loops it
// transformed from LLVM's unroller, which is also how the `coordinates`
// speedup arises. Each round resolves loops through the manager; any unroll
// attempt invalidates it, because UnrollLoop establishes preheader + LCSSA
// form even when it then rejects the loop shape.
func autoUnroll(f *ir.Function, am *analysis.AnalysisManager, skip map[*ir.Block]bool) bool {
	changed := false
	for rounds := 0; rounds < 8; rounds++ {
		li := am.LoopInfo()
		done := true
		// Innermost first (reverse of the outer-first ordering). Snapshot the
		// list: an unroll attempt invalidates the manager.
		loops := append([]*analysis.Loop(nil), li.Loops...)
		for i := len(loops) - 1; i >= 0; i-- {
			l := loops[i]
			if skip != nil && skip[l.Header] {
				continue
			}
			tc, ok := analysis.ConstantTripCount(l)
			if !ok || tc < 2 || tc > AutoUnrollMaxTrip {
				continue
			}
			size := analysis.LoopSize(l)
			if int64(size)*tc > AutoUnrollMaxSize {
				if am.Remarks().Enabled() {
					am.Remarks().Emit(remark.Remark{
						Kind: remark.Missed, Pass: "loop-unroll", Name: "FullUnrollTooLarge",
						Function: f.Name, Block: l.Header.Name,
						Args: []remark.Arg{
							remark.Int("TripCount", tc),
							remark.Int("Size", int64(size)),
							remark.Int("Budget", AutoUnrollMaxSize),
						},
					})
				}
				continue
			}
			header := l.Header
			am.InvalidateAll()
			if UnrollLoop(f, l, int(tc)) {
				changed = true
				done = false
				if am.Remarks().Enabled() {
					am.Remarks().Emit(remark.Remark{
						Kind: remark.Passed, Pass: "loop-unroll", Name: "FullyUnrolled",
						Function: f.Name, Block: header.Name,
						Args: []remark.Arg{
							remark.Int("TripCount", tc),
							remark.Int("Size", int64(size)),
						},
					})
				}
				break // loop structures changed; recompute analyses
			}
		}
		if done {
			break
		}
	}
	return changed
}

// loopIsClosed reports whether every use of a loop-defined value outside the
// loop is a phi in an exit block (loop-closed SSA form).
func loopIsClosed(l *analysis.Loop) bool {
	exitSet := map[*ir.Block]bool{}
	for _, e := range l.ExitBlocks() {
		exitSet[e] = true
	}
	for _, b := range l.Blocks() {
		for _, in := range b.Instrs() {
			for _, u := range in.Users() {
				if u.IsPhi() {
					for i := 0; i < u.NumArgs(); i++ {
						if u.Arg(i) != ir.Value(in) {
							continue
						}
						ib := u.BlockArg(i)
						if l.Contains(ib) {
							continue
						}
						// Incoming from outside the loop must be an exit phi.
						if !exitSet[u.Block()] {
							return false
						}
					}
					continue
				}
				if !l.Contains(u.Block()) {
					return false
				}
			}
		}
	}
	return true
}

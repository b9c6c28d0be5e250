// Package transform implements the optimization passes that surround the
// paper's contribution: the standard -O3-style pipeline (mem2reg, SCCP,
// instruction simplification, GVN with equality propagation, dead-code
// elimination, SimplifyCFG, LICM, if-conversion) plus loop utilities (LCSSA,
// preheader insertion) and the loop unroller that both the baseline `unroll`
// configuration and the paper's unroll-and-unmerge build on.
package transform

import (
	"uu/internal/analysis"
	"uu/internal/ir"
)

// EnsurePreheader guarantees that l has a dedicated preheader: a block whose
// only successor is the header and which is the header's only out-of-loop
// predecessor. Returns the preheader. It mutates the CFG when needed, so
// loop info computed earlier must be refreshed by the caller if it matters.
func EnsurePreheader(f *ir.Function, l *analysis.Loop) *ir.Block {
	if ph := l.Preheader(); ph != nil {
		return ph
	}
	h := l.Header
	var outside []*ir.Block
	for _, p := range h.Preds() {
		if !l.Contains(p) {
			outside = append(outside, p)
		}
	}
	ph := f.NewBlock(h.Name + ".ph")
	// Phis in the header: split incomings between the new preheader phi and
	// the remaining in-loop incomings.
	for _, phi := range h.Phis() {
		nphi := ir.NewInstr(ir.OpPhi, phi.Type())
		nphi.SetName(phi.Name() + ".ph")
		nphi.SetLoc(phi.Loc())
		ph.InsertAtFront(nphi)
		for _, p := range outside {
			nphi.PhiAddIncoming(phi.PhiIncoming(p), p)
		}
		for _, p := range outside {
			phi.PhiRemoveIncoming(p)
		}
		phi.PhiAddIncoming(nphi, ph)
	}
	ir.NewBuilder(ph).Br(h)
	// The Br above added ph as a pred of h; redirect outside preds to ph.
	for _, p := range outside {
		p.ReplaceSucc(h, ph)
	}
	// If h was the function entry, the preheader must become the entry.
	if f.Entry() == h {
		f.MoveBlockAfter(ph, h)
		// MoveBlockAfter keeps h first; we need ph first instead.
	}
	reorderEntry(f, ph, h)
	return ph
}

// reorderEntry makes ph the entry block if h currently is.
func reorderEntry(f *ir.Function, ph, h *ir.Block) {
	if f.Entry() != h {
		return
	}
	blocks := f.Blocks()
	for i, b := range blocks {
		if b == ph {
			copy(blocks[1:i+1], blocks[0:i])
			blocks[0] = ph
			return
		}
	}
}

// SplitCriticalEdge splits the CFG edge from→to by inserting a forwarding
// block; phis in to are rewired. Returns the new block.
func SplitCriticalEdge(f *ir.Function, from, to *ir.Block) *ir.Block {
	mid := f.NewBlock(from.Name + "." + to.Name)
	ir.NewBuilder(mid).Br(to)
	from.ReplaceSucc(to, mid)
	for _, phi := range to.Phis() {
		for i := 0; i < phi.NumBlocks(); i++ {
			if phi.BlockArg(i) == from {
				phi.SetBlockArg(i, mid)
			}
		}
	}
	return mid
}

// ensureDedicatedExits gives l dedicated exit blocks: every exit block's
// predecessors all lie inside the loop (LLVM's loop-simplify invariant).
// An exit that is also reachable from outside the loop — e.g. a following
// loop's header whose backedge re-enters it — is split, rerouting the
// in-loop edges through a fresh forwarding block that becomes the exit.
// Without this an LCSSA phi placed in the shared block would need an
// incoming value for the outside edges, and no correct one exists: on a
// re-entry edge the phi must keep its previous value, which a plain
// def-per-pred phi cannot express. Returns true if the CFG changed.
func ensureDedicatedExits(f *ir.Function, l *analysis.Loop) bool {
	changed := false
	for _, e := range l.ExitBlocks() {
		var inPreds, outPreds []*ir.Block
		for _, p := range e.Preds() {
			if l.Contains(p) {
				inPreds = append(inPreds, p)
			} else {
				outPreds = append(outPreds, p)
			}
		}
		if len(outPreds) == 0 {
			continue
		}
		ded := f.NewBlock(e.Name + ".dexit")
		// Move the in-loop incomings of e's phis into phis in the dedicated
		// block (or pass a unique value through directly).
		phis := append([]*ir.Instr(nil), e.Phis()...)
		for i := len(phis) - 1; i >= 0; i-- {
			phi := phis[i]
			var v ir.Value
			if len(inPreds) == 1 {
				v = phi.PhiIncoming(inPreds[0])
			} else {
				nphi := ir.NewInstr(ir.OpPhi, phi.Type())
				if phi.Name() != "" {
					nphi.SetName(phi.Name() + ".de")
				}
				nphi.SetLoc(phi.Loc())
				ded.InsertAtFront(nphi)
				for _, p := range inPreds {
					nphi.PhiAddIncoming(phi.PhiIncoming(p), p)
				}
				v = nphi
			}
			for _, p := range inPreds {
				phi.PhiRemoveIncoming(p)
			}
			phi.PhiAddIncoming(v, ded)
		}
		ir.NewBuilder(ded).Br(e)
		for _, p := range inPreds {
			p.ReplaceSucc(e, ded)
		}
		changed = true
	}
	return changed
}

// EnsureLCSSA puts l into loop-closed SSA form: every value defined inside
// the loop that is used outside it is routed through a phi in the exit block
// that the use reaches. Loop transforms (unrolling, unmerging) rely on this
// so that duplicating the body only requires fixing exit-block phis.
// Exits are first made dedicated (see ensureDedicatedExits) so that every
// exit-block predecessor lies inside the loop.
func EnsureLCSSA(f *ir.Function, l *analysis.Loop) {
	ensureDedicatedExits(f, l)
	exitSet := ir.NewBlockSet(f)
	for _, e := range l.ExitBlocks() {
		exitSet.Add(e)
	}
	for _, b := range l.Blocks() {
		for _, in := range b.Instrs() {
			if in.Type() == ir.Void {
				continue
			}
			fixLCSSAUses(l, in, exitSet)
		}
	}
}

func fixLCSSAUses(l *analysis.Loop, def *ir.Instr, exitSet ir.BlockSet) {
	// Find uses outside the loop.
	var outside []*ir.Instr
	for _, u := range def.Users() {
		ub := u.Block()
		if u.IsPhi() {
			// A phi use is "outside" per incoming edge; handled below.
			needs := false
			for i := 0; i < u.NumArgs(); i++ {
				if u.Arg(i) == ir.Value(def) && !l.Contains(u.BlockArg(i)) {
					needs = true
				}
			}
			if needs && !(exitSet.Has(ub) && isLCSSAPhi(u, l)) {
				outside = append(outside, u)
			}
			continue
		}
		if !l.Contains(ub) {
			outside = append(outside, u)
		}
	}
	if len(outside) == 0 {
		return
	}
	// Insert one LCSSA phi per exit block in which def is live. For
	// simplicity, insert into every exit block reachable from def's block
	// whose predecessors inside the loop are all dominated by def's block —
	// we conservatively use exit blocks whose in-loop preds see def.
	phiAt := map[*ir.Block]*ir.Instr{}
	getPhi := func(exit *ir.Block) *ir.Instr {
		if p, ok := phiAt[exit]; ok {
			return p
		}
		phi := ir.NewInstr(ir.OpPhi, def.Type())
		phi.SetName(def.Ref()[1:] + ".lcssa")
		phi.SetLoc(def.Loc())
		exit.InsertAtFront(phi)
		for _, p := range exit.Preds() {
			phi.PhiAddIncoming(def, p)
		}
		phiAt[exit] = phi
		return phi
	}
	for _, u := range outside {
		if u.IsPhi() {
			for i := 0; i < u.NumArgs(); i++ {
				if u.Arg(i) != ir.Value(def) || l.Contains(u.BlockArg(i)) {
					continue
				}
				// The incoming edge comes from outside the loop; def must
				// flow through the exit block on that path. Find the exit
				// that dominates the incoming block — with our structured
				// CFGs the incoming block itself is the exit or is reached
				// from a unique exit. Use the nearest exit by walking preds.
				exit := findExitFor(u.BlockArg(i), exitSet)
				if exit == nil || exit == u.Block() {
					// u is itself in an exit block: make it the LCSSA phi.
					continue
				}
				u.SetArg(i, getPhi(exit))
			}
			continue
		}
		if exitSet.Has(u.Block()) && u.IsPhi() {
			continue
		}
		exit := findExitFor(u.Block(), exitSet)
		if exit == nil {
			continue
		}
		phi := getPhi(exit)
		if phi == u {
			continue
		}
		for i := 0; i < u.NumArgs(); i++ {
			if u.Arg(i) == ir.Value(def) {
				u.SetArg(i, phi)
			}
		}
	}
}

func isLCSSAPhi(phi *ir.Instr, l *analysis.Loop) bool {
	for i := 0; i < phi.NumBlocks(); i++ {
		if !l.Contains(phi.BlockArg(i)) {
			return false
		}
	}
	return true
}

// findExitFor walks the CFG backwards from b to the unique exit block in
// exitSet that all paths from the loop to b traverse. It returns b itself if
// b is an exit block.
func findExitFor(b *ir.Block, exitSet ir.BlockSet) *ir.Block {
	seen := make(ir.BlockSet, len(exitSet))
	var found *ir.Block
	var walk func(x *ir.Block) bool
	walk = func(x *ir.Block) bool {
		if seen.Has(x) {
			return true
		}
		seen.Add(x)
		if exitSet.Has(x) {
			if found != nil && found != x {
				return false // multiple exits reach b: ambiguous
			}
			found = x
			return true
		}
		for _, p := range x.Preds() {
			if !walk(p) {
				return false
			}
		}
		return true
	}
	if !walk(b) {
		return nil
	}
	return found
}

// FoldToUncond replaces b's conditional terminator with an unconditional
// branch to keep, updating the other target's phis.
func FoldToUncond(b *ir.Block, keep *ir.Block) {
	t := b.Term()
	if t.Op != ir.OpCondBr {
		panic("transform: FoldToUncond on non-condbr")
	}
	var other *ir.Block
	for i := 0; i < t.NumBlocks(); i++ {
		if t.BlockArg(i) != keep {
			other = t.BlockArg(i)
		}
	}
	b.Erase(t)
	ir.NewBuilder(b).Br(keep)
	if other != nil && other != keep && !other.HasPred(b) {
		for _, phi := range other.Phis() {
			if phi.PhiIncoming(b) != nil {
				phi.PhiRemoveIncoming(b)
			}
		}
	}
}

// RemoveUnreachable deletes blocks not reachable from the entry, fixing phis
// in surviving blocks. Returns true if anything was removed.
func RemoveUnreachable(f *ir.Function) bool {
	reachable := ir.NewBlockSet(f)
	reachable.Add(f.Entry())
	work := []*ir.Block{f.Entry()}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		for _, s := range b.Succs() {
			if !reachable.Has(s) {
				reachable.Add(s)
				work = append(work, s)
			}
		}
	}
	var dead []*ir.Block
	for _, b := range f.Blocks() {
		if !reachable.Has(b) {
			dead = append(dead, b)
		}
	}
	if len(dead) == 0 {
		return false
	}
	// Values defined in dead blocks cannot be used by live blocks (that would
	// violate dominance), so group removal is safe.
	f.RemoveBlocks(dead)
	return true
}

// CollapseSinglePredPhis replaces every phi that has exactly one incoming
// with that incoming value. Returns true on change.
func CollapseSinglePredPhis(f *ir.Function) bool {
	changed := false
	for _, b := range f.Blocks() {
		phis := append([]*ir.Instr(nil), b.Phis()...)
		for _, phi := range phis {
			if phi.NumArgs() == 1 {
				v := phi.Arg(0)
				if v == ir.Value(phi) {
					v = undefFor(phi.Type())
				}
				phi.ReplaceAllUsesWith(v)
				b.Erase(phi)
				changed = true
			}
		}
	}
	return changed
}

// undefFor returns a zero constant standing in for an undefined value.
func undefFor(t *ir.Type) ir.Value {
	if t.IsFloat() {
		return ir.ConstFloat(t, 0)
	}
	if t.IsInt() {
		return ir.ConstInt(t, 0)
	}
	panic("transform: no undef for type " + t.String())
}

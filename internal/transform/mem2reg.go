package transform

import (
	"uu/internal/analysis"
	"uu/internal/ir"
)

// mem2reg promotes allocas whose only uses are scalar loads and stores into
// SSA registers, inserting phi nodes at iterated dominance frontiers and
// renaming along the dominator tree (the classic Cytron et al. construction).
// The language frontend lowers every local variable through an alloca, so
// this pass is what establishes "real" SSA form; it runs first in every
// pipeline.
func mem2reg(f *ir.Function, am *analysis.AnalysisManager) bool {
	var allocas []*ir.Instr
	for _, in := range f.Entry().Instrs() {
		if in.Op == ir.OpAlloca && promotable(in) {
			allocas = append(allocas, in)
		}
	}
	if len(allocas) == 0 {
		return false
	}
	dt := am.DomTree()
	df := dt.Frontier(f)

	// Phi placement: iterated dominance frontier of the store blocks.
	phiFor := map[*ir.Instr]map[*ir.Block]*ir.Instr{} // alloca -> block -> phi
	for _, a := range allocas {
		phiFor[a] = map[*ir.Block]*ir.Instr{}
		work := []*ir.Block{}
		inWork := map[*ir.Block]bool{}
		for _, u := range a.Users() {
			if u.Op == ir.OpStore {
				if b := u.Block(); !inWork[b] {
					inWork[b] = true
					work = append(work, b)
				}
			}
		}
		for len(work) > 0 {
			b := work[len(work)-1]
			work = work[:len(work)-1]
			for _, fb := range df[b] {
				if phiFor[a][fb] != nil {
					continue
				}
				phi := ir.NewInstr(ir.OpPhi, a.Type().Elem)
				phi.SetName(a.Name() + ".m2r")
				phi.SetLoc(a.Loc())
				fb.InsertAtFront(phi)
				phiFor[a][fb] = phi
				if !inWork[fb] {
					inWork[fb] = true
					work = append(work, fb)
				}
			}
		}
	}

	// Renaming: DFS over the dominator tree carrying the current value of
	// each alloca.
	type frame struct {
		block *ir.Block
		vals  map[*ir.Instr]ir.Value
	}
	isAlloca := map[*ir.Instr]bool{}
	for _, a := range allocas {
		isAlloca[a] = true
	}
	var rename func(b *ir.Block, vals map[*ir.Instr]ir.Value)
	rename = func(b *ir.Block, vals map[*ir.Instr]ir.Value) {
		cur := map[*ir.Instr]ir.Value{}
		for k, v := range vals {
			cur[k] = v
		}
		// Phis we inserted define new values on entry.
		for _, a := range allocas {
			if phi := phiFor[a][b]; phi != nil {
				cur[a] = phi
			}
		}
		var dead []*ir.Instr
		for _, in := range b.Instrs() {
			switch in.Op {
			case ir.OpLoad:
				a, ok := in.Arg(0).(*ir.Instr)
				if !ok || !isAlloca[a] {
					continue
				}
				v := cur[a]
				if v == nil {
					v = undefFor(in.Type())
				}
				in.ReplaceAllUsesWith(v)
				dead = append(dead, in)
			case ir.OpStore:
				a, ok := in.Arg(1).(*ir.Instr)
				if !ok || !isAlloca[a] {
					continue
				}
				cur[a] = in.Arg(0)
				dead = append(dead, in)
			}
		}
		for _, in := range dead {
			b.Erase(in)
		}
		// Fill successor phis.
		for _, s := range b.Succs() {
			for _, a := range allocas {
				if phi := phiFor[a][s]; phi != nil {
					v := cur[a]
					if v == nil {
						v = undefFor(phi.Type())
					}
					// One incoming per edge; multi-edges cannot occur
					// (condbr targets are distinct by the verifier).
					if phi.PhiIncoming(b) == nil {
						phi.PhiAddIncoming(v, b)
					}
				}
			}
		}
		for _, c := range dt.Children(b) {
			rename(c, cur)
		}
	}
	rename(f.Entry(), map[*ir.Instr]ir.Value{})

	// Phis in unreachable blocks never got incomings; those blocks are not
	// visited by the dom DFS. Clean up any unreachable blocks now so the
	// function verifies.
	RemoveUnreachable(f)

	for _, a := range allocas {
		a.Block().Erase(a)
	}
	return true
}

// promotable reports whether the alloca is only loaded and stored (never
// used as a GEP base or stored *as a value*).
func promotable(a *ir.Instr) bool {
	for _, u := range a.Users() {
		switch u.Op {
		case ir.OpLoad:
		case ir.OpStore:
			if u.Arg(0) == ir.Value(a) {
				return false
			}
		default:
			return false
		}
	}
	return true
}

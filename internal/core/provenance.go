package core

import (
	"uu/internal/analysis"
	"uu/internal/ir"
)

// ConditionProvenance reconstructs the paper's Figure 5 labels: for every
// block of f it reports, per tracked condition, whether the block's position
// in the CFG implies the condition evaluated true ('T'), false ('F'), or is
// unknown ('X'). A condition counts as decided at a block when a dominating
// single-predecessor edge leaves a conditional branch whose condition is the
// tracked instruction or (via origins, as recorded by u&u) one of its
// clones.
//
// conds lists the original comparison instructions of interest (e.g. the two
// `icmp sgt` of the bezier loop); origins maps clones back to originals and
// may be nil when no duplication happened.
func ConditionProvenance(f *ir.Function, conds []*ir.Instr, origins map[*ir.Instr]*ir.Instr) map[*ir.Block]string {
	condIdx := map[*ir.Instr]int{}
	for i, c := range conds {
		condIdx[c] = i
	}
	rootOf := func(v ir.Value) (*ir.Instr, bool) {
		in, ok := v.(*ir.Instr)
		if !ok {
			return nil, false
		}
		if origins != nil {
			if r, ok := origins[in]; ok {
				in = r
			}
		}
		return in, true
	}

	dt := new(analysis.Scratch).DomTree(f)
	labels := map[*ir.Block]string{}
	state := make([]byte, len(conds))
	for i := range state {
		state[i] = 'X'
	}
	var walk func(b *ir.Block)
	walk = func(b *ir.Block) {
		labels[b] = string(state)
		for _, child := range dt.Children(b) {
			// The edge decides a condition only when it is the unique way
			// into the child.
			decided := -1
			var truth byte
			if len(child.Preds()) == 1 && child.Preds()[0] == b {
				if t := b.Term(); t != nil && t.Op == ir.OpCondBr {
					if root, ok := rootOf(t.Arg(0)); ok {
						if idx, tracked := condIdx[root]; tracked {
							decided = idx
							if child == t.BlockArg(0) {
								truth = 'T'
							} else {
								truth = 'F'
							}
						}
					}
				}
			}
			if decided >= 0 {
				prev := state[decided]
				state[decided] = truth
				walk(child)
				state[decided] = prev
			} else {
				walk(child)
			}
		}
	}
	walk(f.Entry())
	return labels
}

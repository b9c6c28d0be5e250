package analysis

import "uu/internal/ir"

// Divergence classifies which values may differ between threads of a warp.
// It is a forward taint analysis seeded at thread-id intrinsics, extended
// with sync dependences: a phi is divergent when a divergent branch controls
// which incoming path reaches it before the branch's reconvergence point
// (its immediate post-dominator).
//
// The paper names such an analysis as the missing ingredient that would have
// let the heuristic skip the `complex` loop, whose `n & 1` condition on the
// thread id diverges every warp.
type Divergence struct {
	divValues   map[*ir.Instr]bool
	divBranches map[*ir.Block]bool
}

// NewDivergence runs the analysis on f.
func NewDivergence(f *ir.Function) *Divergence {
	d := &Divergence{
		divValues:   map[*ir.Instr]bool{},
		divBranches: map[*ir.Block]bool{},
	}
	pdt := NewPostDomTree(f)

	// For a conditional branch at b with reconvergence point M = ipdom(b),
	// the phis influenced by the branch are those in M itself plus those in
	// blocks reachable from both successors without passing through M.
	influenced := map[*ir.Block]map[*ir.Block]bool{}
	influencedBy := func(b *ir.Block) map[*ir.Block]bool {
		if s, ok := influenced[b]; ok {
			return s
		}
		t := b.Term()
		m := pdt.Idom(b) // may be nil (virtual exit)
		reachAvoiding := func(start *ir.Block) map[*ir.Block]bool {
			seen := map[*ir.Block]bool{}
			if start == m {
				return seen
			}
			work := []*ir.Block{start}
			seen[start] = true
			for len(work) > 0 {
				x := work[len(work)-1]
				work = work[:len(work)-1]
				for _, s := range x.Succs() {
					if s == m || seen[s] {
						continue
					}
					seen[s] = true
					work = append(work, s)
				}
			}
			return seen
		}
		r0 := reachAvoiding(t.BlockArg(0))
		r1 := reachAvoiding(t.BlockArg(1))
		set := map[*ir.Block]bool{}
		for x := range r0 {
			if r1[x] {
				set[x] = true
			}
		}
		if m != nil {
			set[m] = true
		}
		influenced[b] = set
		return set
	}

	changed := true
	for changed {
		changed = false
		for _, b := range f.Blocks() {
			for _, in := range b.Instrs() {
				if d.divValues[in] {
					continue
				}
				if d.instrDivergent(in, influencedBy) {
					d.divValues[in] = true
					changed = true
				}
			}
			t := b.Term()
			if t != nil && t.Op == ir.OpCondBr && !d.divBranches[b] {
				if c, ok := t.Arg(0).(*ir.Instr); ok && d.divValues[c] {
					d.divBranches[b] = true
					changed = true
				}
			}
		}
	}
	return d
}

func (d *Divergence) instrDivergent(in *ir.Instr, influencedBy func(*ir.Block) map[*ir.Block]bool) bool {
	switch in.Op {
	case ir.OpTID:
		return true
	case ir.OpNTID, ir.OpCTAID, ir.OpNCTAID, ir.OpBarrier:
		// Uniform across the warp (ctaid is uniform within a thread block,
		// and a warp never spans thread blocks).
		return false
	}
	for i := 0; i < in.NumArgs(); i++ {
		if a, ok := in.Arg(i).(*ir.Instr); ok && d.divValues[a] {
			return true
		}
	}
	if in.IsPhi() {
		for b, div := range d.divBranches {
			if div && influencedBy(b)[in.Block()] {
				return true
			}
		}
	}
	return false
}

// LoopHasDivergentBranch reports whether any block of l ends in a divergent
// conditional branch — the signal a taint-aware u&u heuristic would use to
// skip loops like the one in `complex`.
func (d *Divergence) LoopHasDivergentBranch(l *Loop) bool {
	for _, b := range l.Blocks() {
		if d.divBranches[b] {
			return true
		}
	}
	return false
}

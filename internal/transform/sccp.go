package transform

import (
	"uu/internal/freelist"
	"uu/internal/ir"
)

// latKind is the SCCP lattice: unknown (top) -> constant -> overdefined.
type latKind int

const (
	latUnknown latKind = iota
	latConst
	latOver
)

type latVal struct {
	kind latKind
	c    *ir.Const
}

// sccpSolver is sparse conditional constant propagation (Wegman-Zadeck): it
// simultaneously tracks constant values and CFG edge feasibility, so
// constants propagate through branches that are provably one-sided — e.g.
// it fully evaluates an unrolled constant-trip-count loop, which is how the
// baseline pipeline's full unrolling collapses (see AutoUnrollPass).
// Afterwards, constant instructions are replaced and one-sided conditional
// branches folded; SimplifyCFG removes the unreachable remains.
//
// The solver is the propagation state. Everything is a slice indexed by
// Block.ID or Instr.ID: the solver creates no blocks or instructions, so the
// function's ID bounds at entry size every table, and a lookup is an index
// instead of a hash of one or two pointers. A solver may run any number of
// times, one run at a time: each run starts from cleared tables but keeps
// their storage, so the invocations that share a Scratch grow them once.
type sccpSolver struct {
	vals      []latVal // by Instr.ID
	execBlock []bool   // by Block.ID
	// execEdge is indexed by 2*from.ID()+slot, slot being the target's
	// position in from's terminator (terminators have at most two targets).
	// A condbr with both targets equal is one edge: its slots are marked
	// together and always agree.
	execEdge []bool
	queued   []bool // by Instr.ID: already on instrWork

	instrWork []*ir.Instr
	blockWork []*ir.Block
}

func (s *sccpSolver) lookup(v ir.Value) latVal {
	switch x := v.(type) {
	case *ir.Const:
		return latVal{latConst, x}
	case *ir.Instr:
		return s.vals[x.ID()]
	}
	return latVal{kind: latOver} // parameters
}

func (s *sccpSolver) enqueue(in *ir.Instr) {
	if id := in.ID(); !s.queued[id] {
		s.queued[id] = true
		s.instrWork = append(s.instrWork, in)
	}
}

func (s *sccpSolver) setVal(in *ir.Instr, nv latVal) {
	old := s.vals[in.ID()]
	if old.kind == nv.kind && (old.kind != latConst || ir.SameConst(old.c, nv.c)) {
		return
	}
	// Monotonic only downward.
	if old.kind == latOver {
		return
	}
	if old.kind == latConst && nv.kind == latConst && !ir.SameConst(old.c, nv.c) {
		nv = latVal{kind: latOver}
	}
	s.vals[in.ID()] = nv
	for i := 0; i < in.NumUses(); i++ {
		s.enqueue(in.User(i))
	}
}

func (s *sccpSolver) edgeExecutable(from, to *ir.Block) bool {
	for slot, t := range from.Succs() {
		if t == to {
			return s.execEdge[2*from.ID()+slot]
		}
	}
	return false
}

func (s *sccpSolver) markEdge(from, to *ir.Block) {
	isNew := false
	for slot, t := range from.Succs() {
		if e := &s.execEdge[2*from.ID()+slot]; t == to && !*e {
			*e = true
			isNew = true
		}
	}
	if !isNew {
		return
	}
	if !s.execBlock[to.ID()] {
		s.execBlock[to.ID()] = true
		s.blockWork = append(s.blockWork, to)
	} else {
		// New edge into an already-executable block: phis must re-meet.
		for _, phi := range to.Phis() {
			s.enqueue(phi)
		}
	}
}

func (s *sccpSolver) visit(in *ir.Instr) {
	b := in.Block()
	if !s.execBlock[b.ID()] {
		return
	}
	switch {
	case in.IsPhi():
		nv := latVal{kind: latUnknown}
		for i := 0; i < in.NumArgs(); i++ {
			if !s.edgeExecutable(in.BlockArg(i), b) {
				continue
			}
			iv := s.lookup(in.Arg(i))
			switch iv.kind {
			case latUnknown:
			case latOver:
				nv = latVal{kind: latOver}
			case latConst:
				if nv.kind == latUnknown {
					nv = iv
				} else if nv.kind == latConst && !ir.SameConst(nv.c, iv.c) {
					nv = latVal{kind: latOver}
				}
			}
		}
		s.setVal(in, nv)
	case in.Op == ir.OpBr:
		s.markEdge(b, in.BlockArg(0))
	case in.Op == ir.OpCondBr:
		cv := s.lookup(in.Arg(0))
		switch cv.kind {
		case latConst:
			if cv.c.Int != 0 {
				s.markEdge(b, in.BlockArg(0))
			} else {
				s.markEdge(b, in.BlockArg(1))
			}
		case latOver:
			s.markEdge(b, in.BlockArg(0))
			s.markEdge(b, in.BlockArg(1))
		}
	case in.Op == ir.OpRet, in.Op == ir.OpStore, in.Op == ir.OpBarrier:
		// No value.
	case in.Op == ir.OpLoad, in.Op == ir.OpAlloca, in.Op == ir.OpGEP,
		in.Op == ir.OpTID, in.Op == ir.OpNTID, in.Op == ir.OpCTAID, in.Op == ir.OpNCTAID:
		s.setVal(in, latVal{kind: latOver})
	default:
		// Pure scalar ops: fold when all operands constant.
		anyUnknown := false
		var buf [3]*ir.Const
		consts := buf[:0]
		for i := 0; i < in.NumArgs(); i++ {
			av := s.lookup(in.Arg(i))
			switch av.kind {
			case latUnknown:
				anyUnknown = true
			case latOver:
				s.setVal(in, latVal{kind: latOver})
				return
			case latConst:
				consts = append(consts, av.c)
			}
		}
		if anyUnknown {
			return
		}
		var r *ir.Const
		switch {
		case in.Op == ir.OpICmp || in.Op == ir.OpFCmp:
			r = ir.FoldCompare(in.Op, in.Pred, consts[0], consts[1])
		case in.Op == ir.OpSelect:
			if consts[0].Int != 0 {
				r = consts[1]
			} else {
				r = consts[2]
			}
		case len(consts) == 1:
			r = ir.FoldUnary(in.Op, consts[0], in.Type())
		case len(consts) == 2:
			r = ir.FoldBinary(in.Op, consts[0], consts[1])
		}
		if r == nil {
			s.setVal(in, latVal{kind: latOver})
		} else {
			s.setVal(in, latVal{latConst, r})
		}
	}
}

// solve runs the propagation to its fixpoint. The fixpoint does not depend
// on the order instructions leave the worklist, which is what lets it carry
// each instruction at most once.
func (s *sccpSolver) solve(f *ir.Function) {
	s.execBlock[f.Entry().ID()] = true
	s.blockWork = append(s.blockWork, f.Entry())
	for len(s.blockWork) > 0 || len(s.instrWork) > 0 {
		if n := len(s.blockWork); n > 0 {
			b := s.blockWork[n-1]
			s.blockWork = s.blockWork[:n-1]
			for _, in := range b.Instrs() {
				s.visit(in)
			}
			continue
		}
		n := len(s.instrWork)
		in := s.instrWork[n-1]
		s.instrWork = s.instrWork[:n-1]
		s.queued[in.ID()] = false
		s.visit(in)
	}
}

// park drops the solver's references to constants and instructions.
func (s *sccpSolver) park() {
	s.vals = freelist.Emptied(s.vals)
	s.instrWork = freelist.Emptied(s.instrWork)
	s.blockWork = freelist.Emptied(s.blockWork)
}

// run propagates over f and rewrites it, reporting whether anything changed
// and whether the rewrite changed the CFG (folded a one-sided conditional branch), which decides whether the
// pass can preserve the cached dominator trees. The tables are cleared on
// the way in, not out, so a run abandoned by a panic costs the next nothing.
func (s *sccpSolver) run(f *ir.Function) (changed, cfgChanged bool) {
	s.vals = freelist.Zeroed(s.vals, f.InstrIDBound())
	s.queued = freelist.Zeroed(s.queued, f.InstrIDBound())
	s.execBlock = freelist.Zeroed(s.execBlock, f.BlockIDBound())
	s.execEdge = freelist.Zeroed(s.execEdge, 2*f.BlockIDBound())
	s.instrWork, s.blockWork = s.instrWork[:0], s.blockWork[:0]
	s.solve(f)

	// Rewrite: replace constant instructions, fold one-sided branches. The
	// replacement branches get IDs past the tables' ends; nothing looks
	// them up.
	for _, b := range f.Blocks() {
		if !s.execBlock[b.ID()] {
			continue // unreachable; SimplifyCFG removes it
		}
		s.instrWork = append(s.instrWork[:0], b.Instrs()...) // the loop erases
		for _, in := range s.instrWork {
			if lv := s.vals[in.ID()]; lv.kind == latConst && in.Type() != ir.Void {
				in.ReplaceAllUsesWith(lv.c)
				if !in.HasSideEffects() {
					b.Erase(in)
				}
				changed = true
			}
		}
		t := b.Term()
		if t != nil && t.Op == ir.OpCondBr {
			e0 := s.execEdge[2*b.ID()]
			e1 := s.execEdge[2*b.ID()+1]
			if e0 != e1 {
				keep := t.BlockArg(0)
				if e1 {
					keep = t.BlockArg(1)
				}
				FoldToUncond(b, keep)
				changed = true
				cfgChanged = true
			}
		}
	}
	return changed, cfgChanged
}

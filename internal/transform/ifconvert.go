package transform

import (
	"uu/internal/ir"
	"uu/internal/remark"
)

// IfConvertThreshold is the maximum per-side instruction count (size cost)
// that if-conversion will speculate, mirroring the small predication
// thresholds GPU compilers use.
const IfConvertThreshold = 8

// ifConvert flattens small diamonds and triangles into straight-line code
// with select instructions, modelling the predication (`selp`) that the
// NVPTX backend applies to short branches. It is the reason the baseline
// pipeline compiles XSBench's binary-search body and complex's odd-test into
// branch-free code — and the transformation that unroll-and-unmerge undoes
// by design, trading warp efficiency for eliminated instructions.
//
// Patterns handled (B = branch block, M = merge):
//
//	diamond:  B -> (T|F), T -> M, F -> M, with T and F single-pred blocks of
//	          speculatable instructions
//	triangle: B -> (T|M), T -> M, same conditions on T
//
// An enabled remark sink records each conversion's shape and branch block.
func ifConvert(f *ir.Function, rc *remark.Collector) bool {
	changed := false
	for again := true; again; {
		again = false
		for _, b := range append([]*ir.Block(nil), f.Blocks()...) {
			if b.Func() == nil {
				continue // removed
			}
			if shape := convertAt(f, b); shape != "" {
				changed = true
				again = true
				if rc.Enabled() {
					rc.Emit(remark.Remark{
						Kind: remark.Passed, Pass: "ifconvert", Name: "IfConverted",
						Function: f.Name, Block: b.Name,
						Args: []remark.Arg{remark.Str("Shape", shape)},
					})
				}
			}
		}
	}
	return changed
}

// convertAt attempts one conversion rooted at b's conditional branch and
// returns the converted shape ("diamond", "triangle") or "" when nothing
// matched.
func convertAt(f *ir.Function, b *ir.Block) string {
	t := b.Term()
	if t == nil || t.Op != ir.OpCondBr {
		return ""
	}
	cond := t.Arg(0)
	s0, s1 := t.BlockArg(0), t.BlockArg(1)

	if m := diamondMerge(b, s0, s1); m != nil {
		if convertDiamond(f, b, cond, s0, s1, m) {
			return "diamond"
		}
		return ""
	}
	// Triangle with the true side speculated: B -> (T | M), T -> M.
	if ok, m := triangle(b, s0, s1); ok {
		if convertTriangle(f, b, cond, s0, m, true) {
			return "triangle"
		}
		return ""
	}
	if ok, m := triangle(b, s1, s0); ok {
		if convertTriangle(f, b, cond, s1, m, false) {
			return "triangle"
		}
		return ""
	}
	return ""
}

// speculatableBlock reports whether blk consists solely of speculatable
// instructions (plus its terminator) within the size threshold, and is a
// single-pred block of b.
func speculatableBlock(blk, pred *ir.Block) bool {
	if len(blk.Preds()) != 1 || blk.Preds()[0] != pred {
		return false
	}
	tm := blk.Term()
	if tm == nil || tm.Op != ir.OpBr {
		return false
	}
	cost := 0
	for _, in := range blk.Instrs() {
		if in.IsTerminator() {
			continue
		}
		if !in.IsSpeculatable() {
			return false
		}
		cost++
		if cost > IfConvertThreshold {
			return false
		}
	}
	return true
}

func diamondMerge(b, s0, s1 *ir.Block) *ir.Block {
	if !speculatableBlock(s0, b) || !speculatableBlock(s1, b) {
		return nil
	}
	m0, m1 := s0.Term().BlockArg(0), s1.Term().BlockArg(0)
	if m0 != m1 || m0 == b {
		return nil
	}
	return m0
}

func triangle(b, side, m *ir.Block) (bool, *ir.Block) {
	if !speculatableBlock(side, b) {
		return false, nil
	}
	if side.Term().BlockArg(0) != m {
		return false, nil
	}
	// m must not have phis that cannot distinguish... m has preds {b, side}.
	return true, m
}

func convertDiamond(f *ir.Function, b *ir.Block, cond ir.Value, s0, s1, m *ir.Block) bool {
	// Hoist both sides into b, then replace m's phis with selects.
	term := b.Term()
	hoist := func(side *ir.Block) {
		for _, in := range append([]*ir.Instr(nil), side.Instrs()...) {
			if in.IsTerminator() {
				continue
			}
			side.Remove(in)
			b.InsertBefore(in, term)
		}
	}
	hoist(s0)
	hoist(s1)
	for _, phi := range append([]*ir.Instr(nil), m.Phis()...) {
		v0 := phi.PhiIncoming(s0)
		v1 := phi.PhiIncoming(s1)
		if v0 == nil || v1 == nil {
			// Phi also merges other preds; keep it but the incomings from
			// s0/s1 will be replaced by one incoming from b below.
			continue
		}
		sel := ir.NewInstr(ir.OpSelect, phi.Type(), cond, v0, v1)
		sel.SetLoc(phi.Loc())
		b.InsertBefore(sel, term)
		phi.PhiRemoveIncoming(s0)
		phi.PhiRemoveIncoming(s1)
		phi.PhiAddIncoming(sel, b)
		// Temporarily inconsistent (b not yet a pred of m); fixed below.
	}
	// Rewire: b branches straight to m; s0/s1 die.
	b.Erase(term)
	ir.NewBuilder(b).Br(m)
	f.RemoveBlocks([]*ir.Block{s0, s1})
	// Collapse phis that now have a single incoming.
	for _, phi := range append([]*ir.Instr(nil), m.Phis()...) {
		if phi.NumArgs() == 1 {
			phi.ReplaceAllUsesWith(phi.Arg(0))
			m.Erase(phi)
		}
	}
	return true
}

func convertTriangle(f *ir.Function, b *ir.Block, cond ir.Value, side, m *ir.Block, sideOnTrue bool) bool {
	// m must not be reached from b by the same edge twice; preds of m include
	// b (direct) and side.
	if !m.HasPred(b) || !m.HasPred(side) {
		return false
	}
	term := b.Term()
	for _, in := range append([]*ir.Instr(nil), side.Instrs()...) {
		if in.IsTerminator() {
			continue
		}
		side.Remove(in)
		b.InsertBefore(in, term)
	}
	for _, phi := range append([]*ir.Instr(nil), m.Phis()...) {
		vSide := phi.PhiIncoming(side)
		vDirect := phi.PhiIncoming(b)
		if vSide == nil || vDirect == nil {
			continue
		}
		var sel *ir.Instr
		if sideOnTrue {
			sel = ir.NewInstr(ir.OpSelect, phi.Type(), cond, vSide, vDirect)
		} else {
			sel = ir.NewInstr(ir.OpSelect, phi.Type(), cond, vDirect, vSide)
		}
		sel.SetLoc(phi.Loc())
		b.InsertBefore(sel, term)
		phi.PhiRemoveIncoming(side)
		phi.PhiSetIncoming(b, sel)
	}
	b.Erase(term)
	ir.NewBuilder(b).Br(m)
	f.RemoveBlock(side)
	for _, phi := range append([]*ir.Instr(nil), m.Phis()...) {
		if phi.NumArgs() == 1 {
			phi.ReplaceAllUsesWith(phi.Arg(0))
			m.Erase(phi)
		}
	}
	return true
}

package transform

import (
	"math/bits"

	"uu/internal/ir"
)

// instCombine applies rewrites that (unlike InstSimplify) may create new
// instructions — chiefly the strength reductions the paper counts among the
// optimizations unmerging re-enables: multiplications, divisions and
// remainders by powers of two become shifts and masks, as the NVPTX backend
// would emit.
//
//   - mul x, 2^k        => shl x, k
//   - udiv x, 2^k       => lshr x, k
//   - urem x, 2^k       => and x, 2^k-1
//   - sdiv x, 2^k       => ashr x, k        (only when x is known non-negative)
//   - select c, x, x    handled by InstSimplify; here select of 1/0 => zext c
//
// Signedness guards: sdiv by a power of two rounds toward zero while ashr
// rounds toward negative infinity, so the sdiv rewrite requires a
// non-negativity proof (a tiny value-range walk over zext/lshr/and/urem and
// non-negative constants). Each block is iterated through s's copy of it.
func (s *Scratch) instCombine(f *ir.Function) bool {
	changed := false
	for _, b := range f.Blocks() {
		s.block = append(s.block[:0], b.Instrs()...)
		for _, in := range s.block {
			if in.Block() == nil {
				continue
			}
			if combineInstr(b, in) {
				changed = true
			}
		}
	}
	return changed
}

func combineInstr(b *ir.Block, in *ir.Instr) bool {
	t := in.Type()
	replaceWith := func(op ir.Op, x ir.Value, c int64) bool {
		ni := ir.NewInstr(op, t, x, ir.ConstInt(t, c))
		ni.SetLoc(in.Loc())
		b.InsertBefore(ni, in)
		in.ReplaceAllUsesWith(ni)
		b.Erase(in)
		return true
	}
	pow2Const := func(v ir.Value) (int64, bool) {
		c, ok := v.(*ir.Const)
		if !ok || !c.Typ.IsInt() || c.Int <= 0 {
			return 0, false
		}
		u := uint64(c.Int)
		if u&(u-1) != 0 {
			return 0, false
		}
		return int64(bits.TrailingZeros64(u)), true
	}

	switch in.Op {
	case ir.OpMul:
		if k, ok := pow2Const(in.Arg(1)); ok && k > 0 {
			return replaceWith(ir.OpShl, in.Arg(0), k)
		}
		if k, ok := pow2Const(in.Arg(0)); ok && k > 0 {
			return replaceWith(ir.OpShl, in.Arg(1), k)
		}
	case ir.OpUDiv:
		if k, ok := pow2Const(in.Arg(1)); ok {
			return replaceWith(ir.OpLShr, in.Arg(0), k)
		}
	case ir.OpURem:
		if c, ok := in.Arg(1).(*ir.Const); ok {
			if _, isPow2 := pow2Const(c); isPow2 {
				return replaceWith(ir.OpAnd, in.Arg(0), c.Int-1)
			}
		}
	case ir.OpSDiv:
		if k, ok := pow2Const(in.Arg(1)); ok && knownNonNegative(in.Arg(0), 4) {
			return replaceWith(ir.OpAShr, in.Arg(0), k)
		}
	case ir.OpSRem:
		if c, ok := in.Arg(1).(*ir.Const); ok {
			if _, isPow2 := pow2Const(c); isPow2 && knownNonNegative(in.Arg(0), 4) {
				return replaceWith(ir.OpAnd, in.Arg(0), c.Int-1)
			}
		}
	case ir.OpSelect:
		// select c, 1, 0 => zext c ; select c, 0, 1 => zext (xor c, true)
		a, aok := in.Arg(1).(*ir.Const)
		bb, bok := in.Arg(2).(*ir.Const)
		if aok && bok && t.IsInt() && t != ir.I1 {
			if a.Int == 1 && bb.Int == 0 {
				ni := ir.NewInstr(ir.OpZExt, t, in.Arg(0))
				ni.SetLoc(in.Loc())
				b.InsertBefore(ni, in)
				in.ReplaceAllUsesWith(ni)
				b.Erase(in)
				return true
			}
		}
	}
	return false
}

// knownNonNegative proves v >= 0 with a small recursive walk.
func knownNonNegative(v ir.Value, depth int) bool {
	if depth == 0 {
		return false
	}
	switch x := v.(type) {
	case *ir.Const:
		return x.Int >= 0
	case *ir.Instr:
		switch x.Op {
		case ir.OpZExt, ir.OpLShr, ir.OpURem:
			return true
		case ir.OpAnd:
			return knownNonNegative(x.Arg(0), depth-1) || knownNonNegative(x.Arg(1), depth-1)
		case ir.OpUDiv:
			return true
		case ir.OpSMax:
			return knownNonNegative(x.Arg(0), depth-1) || knownNonNegative(x.Arg(1), depth-1)
		case ir.OpSMin:
			return knownNonNegative(x.Arg(0), depth-1) && knownNonNegative(x.Arg(1), depth-1)
		case ir.OpSRem, ir.OpAShr:
			// Result sign follows the dividend/shifted value. (Add/Mul/Shl
			// are deliberately excluded: wrap-around could flip the sign.)
			return knownNonNegative(x.Arg(0), depth-1)
		case ir.OpSDiv:
			return knownNonNegative(x.Arg(0), depth-1) && knownNonNegative(x.Arg(1), depth-1)
		case ir.OpSelect:
			return knownNonNegative(x.Arg(1), depth-1) && knownNonNegative(x.Arg(2), depth-1)
		case ir.OpPhi:
			// Do not recurse through phis (cycles); a loop induction from a
			// non-negative start with non-negative step would qualify, but
			// that needs SCEV-grade reasoning.
			return false
		case ir.OpTID, ir.OpNTID, ir.OpCTAID, ir.OpNCTAID:
			return true
		}
	}
	return false
}

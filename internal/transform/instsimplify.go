package transform

import "uu/internal/ir"

// InstSimplify applies local algebraic rewrites until a fixpoint, in the
// spirit of LLVM's InstCombine/InstSimplify. The rules here are the ones the
// paper's case studies lean on — in particular (a+b)-a => b, which deletes
// the subtraction in XSBench's binary-search loop once unmerging has made
// `upperLimit = mid = lowerLimit + length/2` explicit on the taken path.
func InstSimplify(f *ir.Function) bool {
	return new(Scratch).instSimplify(f)
}

// instSimplify is InstSimplify iterating each block through s's copy of it.
func (s *Scratch) instSimplify(f *ir.Function) bool {
	changed := false
	for {
		c := false
		for _, b := range f.Blocks() {
			s.block = append(s.block[:0], b.Instrs()...)
			for _, in := range s.block {
				if in.Block() == nil {
					continue // erased by an earlier rewrite this sweep
				}
				if v := simplifyInstr(in); v != nil {
					in.ReplaceAllUsesWith(v)
					b.Erase(in)
					c = true
				}
			}
		}
		if !c {
			return changed
		}
		changed = true
	}
}

// simplifyInstr returns a value equivalent to in, or nil when no
// simplification applies. It never creates new instructions.
func simplifyInstr(in *ir.Instr) ir.Value {
	if in.Type() == ir.Void || in.HasSideEffects() {
		return nil
	}

	// Constant folding on all-constant operands.
	if v := foldAllConst(in); v != nil {
		return v
	}

	switch in.Op {
	case ir.OpPhi:
		return simplifyPhi(in)
	case ir.OpAdd:
		return simplifyAdd(in)
	case ir.OpSub:
		return simplifySub(in)
	case ir.OpMul:
		return simplifyMul(in)
	case ir.OpSDiv, ir.OpUDiv:
		if c, ok := in.Arg(1).(*ir.Const); ok && c.IsOne() {
			return in.Arg(0)
		}
	case ir.OpSRem, ir.OpURem:
		if c, ok := in.Arg(1).(*ir.Const); ok && c.IsOne() {
			return ir.ConstInt(in.Type(), 0)
		}
	case ir.OpShl, ir.OpLShr, ir.OpAShr:
		if c, ok := in.Arg(1).(*ir.Const); ok && c.IsZero() {
			return in.Arg(0)
		}
		if c, ok := in.Arg(0).(*ir.Const); ok && c.IsZero() {
			return ir.ConstInt(in.Type(), 0)
		}
	case ir.OpAnd:
		if in.Arg(0) == in.Arg(1) {
			return in.Arg(0)
		}
		if c, ok := constOperand(in); ok {
			if c.IsZero() {
				return ir.ConstInt(in.Type(), 0)
			}
			if c.Int == allOnes(in.Type()) {
				return otherOperand(in, c)
			}
		}
	case ir.OpOr:
		if in.Arg(0) == in.Arg(1) {
			return in.Arg(0)
		}
		if c, ok := constOperand(in); ok {
			if c.IsZero() {
				return otherOperand(in, c)
			}
			if c.Int == allOnes(in.Type()) {
				return ir.ConstInt(in.Type(), c.Int)
			}
		}
	case ir.OpXor:
		if in.Arg(0) == in.Arg(1) {
			return ir.ConstInt(in.Type(), 0)
		}
		if c, ok := constOperand(in); ok && c.IsZero() {
			return otherOperand(in, c)
		}
	case ir.OpICmp:
		return simplifyICmp(in)
	case ir.OpSelect:
		if c, ok := in.Arg(0).(*ir.Const); ok {
			if c.Int != 0 {
				return in.Arg(1)
			}
			return in.Arg(2)
		}
		if in.Arg(1) == in.Arg(2) {
			return in.Arg(1)
		}
	case ir.OpFAdd:
		// Fast-math style identities, as the GPU toolchain applies.
		if c, ok := in.Arg(1).(*ir.Const); ok && c.Float == 0 {
			return in.Arg(0)
		}
		if c, ok := in.Arg(0).(*ir.Const); ok && c.Float == 0 {
			return in.Arg(1)
		}
	case ir.OpFSub:
		if c, ok := in.Arg(1).(*ir.Const); ok && c.Float == 0 {
			return in.Arg(0)
		}
	case ir.OpFMul:
		if c, ok := constOperand(in); ok && c.Float == 1 {
			return otherOperand(in, c)
		}
	case ir.OpFDiv:
		if c, ok := in.Arg(1).(*ir.Const); ok && c.Float == 1 {
			return in.Arg(0)
		}
	case ir.OpGEP:
		if c, ok := in.Arg(1).(*ir.Const); ok && c.IsZero() {
			return in.Arg(0)
		}
	case ir.OpSMin, ir.OpSMax:
		if in.Arg(0) == in.Arg(1) {
			return in.Arg(0)
		}
	}
	return nil
}

func foldAllConst(in *ir.Instr) ir.Value {
	if in.NumArgs() == 0 || in.IsPhi() {
		return nil
	}
	var consts []*ir.Const
	for i := 0; i < in.NumArgs(); i++ {
		c, ok := in.Arg(i).(*ir.Const)
		if !ok {
			return nil
		}
		consts = append(consts, c)
	}
	switch {
	case in.Op == ir.OpICmp || in.Op == ir.OpFCmp:
		if v := ir.FoldCompare(in.Op, in.Pred, consts[0], consts[1]); v != nil {
			return v
		}
	case in.Op == ir.OpSelect:
		if consts[0].Int != 0 {
			return consts[1]
		}
		return consts[2]
	case len(consts) == 1:
		if v := ir.FoldUnary(in.Op, consts[0], in.Type()); v != nil {
			return v
		}
	case len(consts) == 2:
		if v := ir.FoldBinary(in.Op, consts[0], consts[1]); v != nil {
			return v
		}
	}
	return nil
}

func simplifyPhi(in *ir.Instr) ir.Value {
	if in.NumArgs() == 0 {
		return nil
	}
	var same ir.Value
	for i := 0; i < in.NumArgs(); i++ {
		v := in.Arg(i)
		if v == ir.Value(in) {
			continue // self-reference contributes nothing
		}
		if same == nil {
			same = v
		} else if same != v {
			return nil
		}
	}
	return same
}

func simplifyAdd(in *ir.Instr) ir.Value {
	if c, ok := constOperand(in); ok && c.IsZero() {
		return otherOperand(in, c)
	}
	return nil
}

func simplifySub(in *ir.Instr) ir.Value {
	a, b := in.Arg(0), in.Arg(1)
	if a == b {
		return ir.ConstInt(in.Type(), 0)
	}
	if c, ok := b.(*ir.Const); ok && c.IsZero() {
		return a
	}
	// (x + y) - x => y  and  (x + y) - y => x. This is the XSBench rewrite:
	// upperLimit - lowerLimit where upperLimit = lowerLimit + length/2.
	if ai, ok := a.(*ir.Instr); ok && ai.Op == ir.OpAdd {
		if ai.Arg(0) == b {
			return ai.Arg(1)
		}
		if ai.Arg(1) == b {
			return ai.Arg(0)
		}
	}
	// x - (x + y) would be -y; skipped (needs a new instruction).
	return nil
}

func simplifyMul(in *ir.Instr) ir.Value {
	if c, ok := constOperand(in); ok {
		if c.IsZero() {
			return ir.ConstInt(in.Type(), 0)
		}
		if c.IsOne() {
			return otherOperand(in, c)
		}
	}
	return nil
}

func simplifyICmp(in *ir.Instr) ir.Value {
	a, b := in.Arg(0), in.Arg(1)
	if a == b {
		switch in.Pred {
		case ir.EQ, ir.SLE, ir.SGE, ir.ULE, ir.UGE:
			return ir.True
		case ir.NE, ir.SLT, ir.SGT, ir.ULT, ir.UGT:
			return ir.False
		}
	}
	// Unsigned comparisons against zero.
	if c, ok := b.(*ir.Const); ok && c.IsZero() {
		switch in.Pred {
		case ir.ULT:
			return ir.False
		case ir.UGE:
			return ir.True
		}
	}
	return nil
}

func constOperand(in *ir.Instr) (*ir.Const, bool) {
	if c, ok := in.Arg(1).(*ir.Const); ok {
		return c, true
	}
	if in.IsCommutative() {
		if c, ok := in.Arg(0).(*ir.Const); ok {
			return c, true
		}
	}
	return nil, false
}

func otherOperand(in *ir.Instr, c *ir.Const) ir.Value {
	if in.Arg(1) == ir.Value(c) {
		return in.Arg(0)
	}
	return in.Arg(1)
}

func allOnes(t *ir.Type) int64 {
	switch t.Kind {
	case ir.KindI1:
		return 1
	case ir.KindI8:
		return -1 // canonical signed form of 0xff in i8
	default:
		return -1
	}
}

package ir

import "math"

// Scalar is a constant's payload without its type and without the box:
// integers (including i1 and pointers) live in I, floats in F. It is the
// operand and result form of the value kernels below, which hold the one
// definition of every foldable opcode. FoldBinary, FoldCompare and FoldUnary
// wrap them for *Const operands (SCCP, InstSimplify, trip counts); the
// reference interpreter calls them directly, so the oracle and the optimizer
// cannot disagree about an opcode and a step of the oracle allocates nothing.
type Scalar struct {
	I int64
	F float64
}

func (c *Const) scalar() Scalar { return Scalar{I: c.Int, F: c.Float} }

// box turns a kernel result of type t back into a constant. Kernels build
// results with IntScalar/FloatScalar, so the payload is already canonical
// and the field of the other domain is zero.
func (s Scalar) box(t *Type) *Const { return &Const{Typ: t, Int: s.I, Float: s.F} }

// FoldBinary evaluates a binary arithmetic or math-intrinsic opcode on
// constant operands. It returns nil when the operation cannot be folded
// (division by zero, mismatched kinds).
func FoldBinary(op Op, a, b *Const) *Const {
	r, ok := EvalBinary(op, a.Typ, a.scalar(), b.scalar())
	if !ok {
		return nil
	}
	return r.box(a.Typ)
}

// EvalBinary is FoldBinary on scalars of type t. Operands are taken as
// given (a Const is already in its type's canonical form); the result is
// truncated or rounded to t. ok is false where FoldBinary returns nil.
func EvalBinary(op Op, t *Type, a, b Scalar) (Scalar, bool) {
	switch op {
	case OpAdd:
		return IntScalar(t, a.I+b.I), true
	case OpSub:
		return IntScalar(t, a.I-b.I), true
	case OpMul:
		return IntScalar(t, a.I*b.I), true
	case OpSDiv:
		if b.I == 0 {
			return Scalar{}, false
		}
		return IntScalar(t, a.I/b.I), true
	case OpUDiv:
		if b.I == 0 {
			return Scalar{}, false
		}
		return IntScalar(t, int64(toUnsigned(t, a.I)/toUnsigned(t, b.I))), true
	case OpSRem:
		if b.I == 0 {
			return Scalar{}, false
		}
		return IntScalar(t, a.I%b.I), true
	case OpURem:
		if b.I == 0 {
			return Scalar{}, false
		}
		return IntScalar(t, int64(toUnsigned(t, a.I)%toUnsigned(t, b.I))), true
	case OpShl:
		return IntScalar(t, a.I<<shiftAmt(t, b.I)), true
	case OpLShr:
		return IntScalar(t, int64(toUnsigned(t, a.I)>>shiftAmt(t, b.I))), true
	case OpAShr:
		return IntScalar(t, a.I>>shiftAmt(t, b.I)), true
	case OpAnd:
		return IntScalar(t, a.I&b.I), true
	case OpOr:
		return IntScalar(t, a.I|b.I), true
	case OpXor:
		return IntScalar(t, a.I^b.I), true
	case OpFAdd:
		return FloatScalar(t, a.F+b.F), true
	case OpFSub:
		return FloatScalar(t, a.F-b.F), true
	case OpFMul:
		return FloatScalar(t, a.F*b.F), true
	case OpFDiv:
		return FloatScalar(t, a.F/b.F), true
	case OpPow:
		return FloatScalar(t, math.Pow(a.F, b.F)), true
	case OpFMin:
		return FloatScalar(t, math.Min(a.F, b.F)), true
	case OpFMax:
		return FloatScalar(t, math.Max(a.F, b.F)), true
	case OpSMin:
		return IntScalar(t, min(a.I, b.I)), true
	case OpSMax:
		return IntScalar(t, max(a.I, b.I)), true
	}
	return Scalar{}, false
}

// FoldCompare evaluates an icmp/fcmp predicate on constants.
func FoldCompare(op Op, pred Pred, a, b *Const) *Const {
	r, ok := EvalCompare(op, pred, a.Typ, a.scalar(), b.scalar())
	if !ok {
		return nil
	}
	return ConstBool(r)
}

// EvalCompare is FoldCompare on scalars of type t (the operands' type; it
// only matters to the unsigned integer predicates). ok is false for a
// predicate the opcode does not have.
func EvalCompare(op Op, pred Pred, t *Type, a, b Scalar) (r, ok bool) {
	if op == OpICmp {
		ua, ub := toUnsigned(t, a.I), toUnsigned(t, b.I)
		switch pred {
		case EQ:
			return a.I == b.I, true
		case NE:
			return a.I != b.I, true
		case SLT:
			return a.I < b.I, true
		case SLE:
			return a.I <= b.I, true
		case SGT:
			return a.I > b.I, true
		case SGE:
			return a.I >= b.I, true
		case ULT:
			return ua < ub, true
		case ULE:
			return ua <= ub, true
		case UGT:
			return ua > ub, true
		case UGE:
			return ua >= ub, true
		}
		return false, false
	}
	switch pred {
	case OEQ:
		return a.F == b.F, true
	case ONE:
		return a.F != b.F, true
	case OLT:
		return a.F < b.F, true
	case OLE:
		return a.F <= b.F, true
	case OGT:
		return a.F > b.F, true
	case OGE:
		return a.F >= b.F, true
	}
	return false, false
}

// FoldUnary evaluates a unary opcode (conversion or math intrinsic) on a
// constant. to is the result type for conversions (ignored for math ops,
// which preserve the operand type).
func FoldUnary(op Op, v *Const, to *Type) *Const {
	if op < OpTrunc || op > OpFPTrunc { // not a conversion (they are contiguous in Op)
		to = v.Typ
	}
	r, ok := EvalUnary(op, v.Typ, to, v.scalar())
	if !ok {
		return nil
	}
	return r.box(to)
}

// EvalUnary is FoldUnary on a scalar of type from, producing a scalar of
// type to; for a math intrinsic the caller passes the type to round to
// (FoldUnary passes the operand's). ok is false where FoldUnary returns nil
// (fptosi of NaN or an infinity, an opcode that is not unary).
func EvalUnary(op Op, from, to *Type, v Scalar) (Scalar, bool) {
	switch op {
	case OpTrunc, OpSExt:
		return IntScalar(to, v.I), true
	case OpZExt:
		return IntScalar(to, int64(toUnsigned(from, v.I))), true
	case OpSIToFP:
		return FloatScalar(to, float64(v.I)), true
	case OpFPToSI:
		if math.IsNaN(v.F) || math.IsInf(v.F, 0) {
			return Scalar{}, false
		}
		return IntScalar(to, int64(v.F)), true
	case OpFPExt, OpFPTrunc:
		return FloatScalar(to, v.F), true
	case OpSqrt:
		return FloatScalar(to, math.Sqrt(v.F)), true
	case OpFAbs:
		return FloatScalar(to, math.Abs(v.F)), true
	case OpExp:
		return FloatScalar(to, math.Exp(v.F)), true
	case OpLog:
		return FloatScalar(to, math.Log(v.F)), true
	case OpSin:
		return FloatScalar(to, math.Sin(v.F)), true
	case OpCos:
		return FloatScalar(to, math.Cos(v.F)), true
	case OpFloor:
		return FloatScalar(to, math.Floor(v.F)), true
	}
	return Scalar{}, false
}

func toUnsigned(t *Type, v int64) uint64 {
	switch t.Kind {
	case KindI1:
		return uint64(v) & 1
	case KindI8:
		return uint64(uint8(v))
	case KindI32:
		return uint64(uint32(v))
	default:
		return uint64(v)
	}
}

func shiftAmt(t *Type, v int64) uint64 {
	return uint64(v) & uint64(t.Bits()-1)
}

// SameConst reports whether two constants are identical in type and value.
func SameConst(a, b *Const) bool {
	if a.Typ != b.Typ {
		return false
	}
	if a.Typ.IsFloat() {
		return a.Float == b.Float || (math.IsNaN(a.Float) && math.IsNaN(b.Float))
	}
	return a.Int == b.Int
}

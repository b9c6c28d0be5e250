package ir

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refFoldBinary, refFoldCompare and refFoldUnary are the folders as they
// were when each opcode was defined directly on boxed constants. They are
// kept, unchanged but for names, only as the oracle TestValueKernels holds
// the value kernels and their wrappers against.
func refFoldBinary(op Op, a, b *Const) *Const {
	t := a.Typ
	switch op {
	case OpAdd:
		return ConstInt(t, a.Int+b.Int)
	case OpSub:
		return ConstInt(t, a.Int-b.Int)
	case OpMul:
		return ConstInt(t, a.Int*b.Int)
	case OpSDiv:
		if b.Int == 0 {
			return nil
		}
		return ConstInt(t, a.Int/b.Int)
	case OpUDiv:
		if b.Int == 0 {
			return nil
		}
		return ConstInt(t, int64(toUnsigned(t, a.Int)/toUnsigned(t, b.Int)))
	case OpSRem:
		if b.Int == 0 {
			return nil
		}
		return ConstInt(t, a.Int%b.Int)
	case OpURem:
		if b.Int == 0 {
			return nil
		}
		return ConstInt(t, int64(toUnsigned(t, a.Int)%toUnsigned(t, b.Int)))
	case OpShl:
		return ConstInt(t, a.Int<<shiftAmt(t, b.Int))
	case OpLShr:
		return ConstInt(t, int64(toUnsigned(t, a.Int)>>shiftAmt(t, b.Int)))
	case OpAShr:
		return ConstInt(t, a.Int>>shiftAmt(t, b.Int))
	case OpAnd:
		return ConstInt(t, a.Int&b.Int)
	case OpOr:
		return ConstInt(t, a.Int|b.Int)
	case OpXor:
		return ConstInt(t, a.Int^b.Int)
	case OpFAdd:
		return ConstFloat(t, a.Float+b.Float)
	case OpFSub:
		return ConstFloat(t, a.Float-b.Float)
	case OpFMul:
		return ConstFloat(t, a.Float*b.Float)
	case OpFDiv:
		return ConstFloat(t, a.Float/b.Float)
	case OpPow:
		return ConstFloat(t, math.Pow(a.Float, b.Float))
	case OpFMin:
		return ConstFloat(t, math.Min(a.Float, b.Float))
	case OpFMax:
		return ConstFloat(t, math.Max(a.Float, b.Float))
	case OpSMin:
		return ConstInt(t, min(a.Int, b.Int))
	case OpSMax:
		return ConstInt(t, max(a.Int, b.Int))
	}
	return nil
}

func refFoldCompare(op Op, pred Pred, a, b *Const) *Const {
	var r bool
	if op == OpICmp {
		t := a.Typ
		ua, ub := toUnsigned(t, a.Int), toUnsigned(t, b.Int)
		switch pred {
		case EQ:
			r = a.Int == b.Int
		case NE:
			r = a.Int != b.Int
		case SLT:
			r = a.Int < b.Int
		case SLE:
			r = a.Int <= b.Int
		case SGT:
			r = a.Int > b.Int
		case SGE:
			r = a.Int >= b.Int
		case ULT:
			r = ua < ub
		case ULE:
			r = ua <= ub
		case UGT:
			r = ua > ub
		case UGE:
			r = ua >= ub
		default:
			return nil
		}
	} else {
		switch pred {
		case OEQ:
			r = a.Float == b.Float
		case ONE:
			r = a.Float != b.Float
		case OLT:
			r = a.Float < b.Float
		case OLE:
			r = a.Float <= b.Float
		case OGT:
			r = a.Float > b.Float
		case OGE:
			r = a.Float >= b.Float
		default:
			return nil
		}
	}
	return ConstBool(r)
}

func refFoldUnary(op Op, v *Const, to *Type) *Const {
	switch op {
	case OpTrunc:
		return ConstInt(to, v.Int)
	case OpZExt:
		return ConstInt(to, int64(toUnsigned(v.Typ, v.Int)))
	case OpSExt:
		return ConstInt(to, v.Int)
	case OpSIToFP:
		return ConstFloat(to, float64(v.Int))
	case OpFPToSI:
		if math.IsNaN(v.Float) || math.IsInf(v.Float, 0) {
			return nil
		}
		return ConstInt(to, int64(v.Float))
	case OpFPExt, OpFPTrunc:
		return ConstFloat(to, v.Float)
	case OpSqrt:
		return ConstFloat(v.Typ, math.Sqrt(v.Float))
	case OpFAbs:
		return ConstFloat(v.Typ, math.Abs(v.Float))
	case OpExp:
		return ConstFloat(v.Typ, math.Exp(v.Float))
	case OpLog:
		return ConstFloat(v.Typ, math.Log(v.Float))
	case OpSin:
		return ConstFloat(v.Typ, math.Sin(v.Float))
	case OpCos:
		return ConstFloat(v.Typ, math.Cos(v.Float))
	case OpFloor:
		return ConstFloat(v.Typ, math.Floor(v.Float))
	}
	return nil
}

// foldTypes are the scalar types an operand can have.
var foldTypes = []*Type{I1, I8, I32, I64, F32, F64}

// refTrunc is truncation to t's width written without IntScalar.
func refTrunc(t *Type, v int64) int64 {
	if bits := uint(t.Bits()); bits < 64 {
		v &= 1<<bits - 1
		if bits > 1 && v>>(bits-1) != 0 {
			v -= 1 << bits
		}
	}
	return v
}

func randOperand(rng *rand.Rand, t *Type) *Const {
	if t.IsFloat() {
		var v float64
		switch rng.Intn(3) {
		case 0:
			v = []float64{0, math.Copysign(0, -1), 1, -1, math.Inf(1), math.Inf(-1), math.NaN(), 1e300, 1e-320, 0.1, 9.3e18, -9.3e18}[rng.Intn(12)]
		case 1:
			v = float64(rng.Intn(2000)-1000) / 8
		default:
			v = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(40)-10))
		}
		return ConstFloat(t, v)
	}
	var v int64
	switch rng.Intn(3) {
	case 0:
		v = int64(rng.Intn(5)) - 2
	case 1:
		v = []int64{math.MinInt64, math.MaxInt64, math.MinInt32, math.MaxInt32, 127, -128, 255, 63, 64, 31, 32, 7, 8}[rng.Intn(13)]
	default:
		v = int64(rng.Uint64())
	}
	if got, want := IntScalar(t, v).I, refTrunc(t, v); got != want {
		panic(fmt.Sprintf("IntScalar(%s, %d) = %d, want %d", t, v, got, want))
	}
	return ConstInt(t, v)
}

// sameFold reports whether the wrapper's result, the kernel's result and
// the reference's agree: nil together (ok=false exactly where the reference
// folder returned nil), or the same type and payload bit for bit, with the
// kernel's scalar carrying nothing in the other domain's field.
func sameFold(got, want *Const, k Scalar, ok bool) bool {
	if want == nil {
		return got == nil && !ok
	}
	if got == nil || !ok || got.Typ != want.Typ {
		return false
	}
	return got.Int == want.Int && math.Float64bits(got.Float) == math.Float64bits(want.Float) &&
		k.I == want.Int && math.Float64bits(k.F) == math.Float64bits(want.Float)
}

// TestValueKernels: for every foldable opcode at every type it accepts and
// random operands, the value kernel, its Fold* wrapper and the old boxed
// folder agree — width truncation, shift-amount masking, unsigned
// compare/div/rem on narrow types, f32 rounding included — and ok is false
// exactly where the old folder returned nil (a zero divisor, fptosi of NaN
// or an infinity, a predicate the compare does not have).
func TestValueKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	const reps = 400
	intBin := []Op{OpAdd, OpSub, OpMul, OpSDiv, OpUDiv, OpSRem, OpURem, OpShl, OpLShr, OpAShr, OpAnd, OpOr, OpXor, OpSMin, OpSMax}
	floatBin := []Op{OpFAdd, OpFSub, OpFMul, OpFDiv, OpPow, OpFMin, OpFMax}
	floatUn := []Op{OpSqrt, OpFAbs, OpExp, OpLog, OpSin, OpCos, OpFloor}
	preds := []Pred{PredInvalid, EQ, NE, SLT, SLE, SGT, SGE, ULT, ULE, UGT, UGE, OEQ, ONE, OLT, OLE, OGT, OGE}
	declined := 0
	for _, typ := range foldTypes {
		bin, cmp := intBin, OpICmp
		if typ.IsFloat() {
			bin, cmp = floatBin, OpFCmp
		}
		for _, op := range bin {
			for i := 0; i < reps; i++ {
				a, b := randOperand(rng, typ), randOperand(rng, typ)
				k, ok := EvalBinary(op, typ, a.scalar(), b.scalar())
				if !ok {
					declined++
				}
				if got, want := FoldBinary(op, a, b), refFoldBinary(op, a, b); !sameFold(got, want, k, ok) {
					t.Fatalf("%s %s %s, %s: wrapper %v, kernel %+v ok=%v, reference %v", op, typ, a.Ref(), b.Ref(), got, k, ok, want)
				}
			}
		}
		for _, pred := range preds {
			for i := 0; i < reps; i++ {
				a, b := randOperand(rng, typ), randOperand(rng, typ)
				r, ok := EvalCompare(cmp, pred, typ, a.scalar(), b.scalar())
				if !ok {
					declined++
				}
				k := Scalar{}
				if r {
					k.I = 1
				}
				if got, want := FoldCompare(cmp, pred, a, b), refFoldCompare(cmp, pred, a, b); !sameFold(got, want, k, ok) {
					t.Fatalf("%s %s %s %s, %s: wrapper %v, kernel %v ok=%v, reference %v", cmp, pred, typ, a.Ref(), b.Ref(), got, r, ok, want)
				}
			}
		}
		unary := func(op Op, to *Type) {
			for i := 0; i < reps; i++ {
				v := randOperand(rng, typ)
				kto := to
				if op >= OpSqrt {
					kto = typ // FoldUnary ignores to for a math intrinsic and rounds to the operand's type
				}
				k, ok := EvalUnary(op, typ, kto, v.scalar())
				if !ok {
					declined++
				}
				if got, want := FoldUnary(op, v, to), refFoldUnary(op, v, to); !sameFold(got, want, k, ok) {
					t.Fatalf("%s %s %s -> %v: wrapper %v, kernel %+v ok=%v, reference %v", op, typ, v.Ref(), to, got, k, ok, want)
				}
			}
		}
		if typ.IsFloat() {
			for _, op := range floatUn {
				unary(op, nil)
				unary(op, I64) // ignored for math intrinsics
			}
		}
		for _, to := range foldTypes {
			switch {
			case typ.IsInt() && to.IsInt() && to.Bits() < typ.Bits():
				unary(OpTrunc, to)
			case typ.IsInt() && to.IsInt() && to.Bits() > typ.Bits():
				unary(OpZExt, to)
				unary(OpSExt, to)
			case typ.IsInt() && to.IsFloat():
				unary(OpSIToFP, to)
			case typ.IsFloat() && to.IsInt():
				unary(OpFPToSI, to)
			case typ == F32 && to == F64:
				unary(OpFPExt, to)
			case typ == F64 && to == F32:
				unary(OpFPTrunc, to)
			}
		}
	}
	// An opcode outside each folder's set declines too.
	one := ConstInt(I64, 1)
	if _, ok := EvalBinary(OpSelect, I64, one.scalar(), one.scalar()); ok || FoldBinary(OpSelect, one, one) != nil {
		t.Error("EvalBinary folded a select")
	}
	if _, ok := EvalUnary(OpAdd, I64, I64, one.scalar()); ok || FoldUnary(OpAdd, one, I64) != nil {
		t.Error("EvalUnary folded an add")
	}
	if declined == 0 {
		t.Error("no operand tuple reached a declining case")
	}
}

package gpusim

import (
	"math"

	"uu/internal/ir"
)

// This file holds the plain scalar definition of every compute, setp and
// conversion opcode, keyed on the instruction's ir.Op and its type's
// ir.Kind. The threaded-code compiler (threaded.go) calls these kernels per
// lane for every op it does not restate inline; the reference core in
// refcore_test.go runs every scalar op through them, and the differential
// tests hold those restatements to it. They are the simulator's own
// arithmetic: nothing here may call ir's Eval or Fold kernels, which the
// interpreter and constant folding share (DESIGN.md §16), and CI fails a
// gpusim file that does.

// evalICmp compares two canonically stored integers under pred. Unsigned
// predicates compare the operands zero-extended from their declared width
// (aux is that width's mask); everything else compares the sign-extended
// canonical form directly.
func evalICmp(pred ir.Pred, aux uint64, a, b int64) bool {
	switch pred {
	case ir.EQ:
		return a == b
	case ir.NE:
		return a != b
	case ir.SLT:
		return a < b
	case ir.SLE:
		return a <= b
	case ir.SGT:
		return a > b
	case ir.SGE:
		return a >= b
	case ir.ULT:
		return uint64(a)&aux < uint64(b)&aux
	case ir.ULE:
		return uint64(a)&aux <= uint64(b)&aux
	case ir.UGT:
		return uint64(a)&aux > uint64(b)&aux
	case ir.UGE:
		return uint64(a)&aux >= uint64(b)&aux
	}
	return false
}

// evalFCmp compares two floats under an ordered predicate.
func evalFCmp(pred ir.Pred, a, b float64) bool {
	switch pred {
	case ir.OEQ:
		return a == b
	case ir.ONE:
		return a != b
	case ir.OLT:
		return a < b
	case ir.OLE:
		return a <= b
	case ir.OGT:
		return a > b
	case ir.OGE:
		return a >= b
	}
	return false
}

// evalIntOp executes one integer compute op on canonically stored operands
// of kind k and returns the canonically truncated result; aux is a shift's
// amount mask. Division and remainder by zero yield 0 (the machine traps
// are out of scope).
func evalIntOp(op ir.Op, k ir.Kind, aux uint64, a, b int64) int64 {
	var r int64
	switch op {
	case ir.OpAdd:
		r = a + b
	case ir.OpSub:
		r = a - b
	case ir.OpMul:
		r = a * b
	case ir.OpSDiv:
		if b != 0 {
			r = a / b
		}
	case ir.OpUDiv:
		if b != 0 {
			r = int64(toU(k, a) / toU(k, b))
		}
	case ir.OpSRem:
		if b != 0 {
			r = a % b
		}
	case ir.OpURem:
		if b != 0 {
			r = int64(toU(k, a) % toU(k, b))
		}
	case ir.OpShl:
		r = a << (uint64(b) & aux)
	case ir.OpLShr:
		r = int64(toU(k, a) >> (uint64(b) & aux))
	case ir.OpAShr:
		r = a >> (uint64(b) & aux)
	case ir.OpAnd:
		r = a & b
	case ir.OpOr:
		r = a | b
	case ir.OpXor:
		r = a ^ b
	case ir.OpSMin:
		r = min(a, b)
	case ir.OpSMax:
		r = max(a, b)
	}
	return trunc(k, r)
}

// evalFloatOp executes one float compute op; unary ops ignore b. rnd rounds
// the result to f32 precision.
func evalFloatOp(op ir.Op, rnd bool, a, b float64) float64 {
	var r float64
	switch op {
	case ir.OpFAdd:
		r = a + b
	case ir.OpFSub:
		r = a - b
	case ir.OpFMul:
		r = a * b
	case ir.OpFDiv:
		r = a / b
	case ir.OpPow:
		r = math.Pow(a, b)
	case ir.OpFMin:
		r = math.Min(a, b)
	case ir.OpFMax:
		r = math.Max(a, b)
	case ir.OpSqrt:
		r = math.Sqrt(a)
	case ir.OpFAbs:
		r = math.Abs(a)
	case ir.OpExp:
		r = math.Exp(a)
	case ir.OpLog:
		r = math.Log(a)
	case ir.OpSin:
		r = math.Sin(a)
	case ir.OpCos:
		r = math.Cos(a)
	case ir.OpFloor:
		r = math.Floor(a)
	}
	if rnd {
		r = float64(float32(r))
	}
	return r
}

// evalConvI executes an integer-result conversion (trunc, zext, sext,
// fptosi) to kind k. aI and aF are the operand in both domains; each
// conversion reads only the domain its source type implies.
func evalConvI(op ir.Op, k ir.Kind, aux uint64, aI int64, aF float64) int64 {
	switch op {
	case ir.OpTrunc:
		return trunc(k, aI)
	case ir.OpZExt:
		// aux masks to the recorded source width — exact for every source
		// type, unlike the old 0/1-value heuristic.
		return int64(uint64(aI) & aux)
	case ir.OpSExt:
		return aI
	case ir.OpFPToSI:
		if math.IsNaN(aF) || math.IsInf(aF, 0) {
			return 0
		}
		return trunc(k, int64(aF))
	}
	return 0
}

// evalConvF executes a float-result conversion (sitofp, fpext, fptrunc).
func evalConvF(op ir.Op, rnd bool, aI int64, aF float64) float64 {
	var r float64
	switch op {
	case ir.OpSIToFP:
		r = float64(aI)
	case ir.OpFPExt, ir.OpFPTrunc:
		r = aF
	}
	if rnd {
		r = float64(float32(r))
	}
	return r
}

// trunc truncates v to the canonical in-register form of integer kind k:
// narrow ints are stored sign-extended, i1 as 0/1; 64-bit kinds pass
// through.
func trunc(k ir.Kind, v int64) int64 {
	switch k {
	case ir.KindI1:
		return v & 1
	case ir.KindI8:
		return int64(int8(v))
	case ir.KindI32:
		return int64(int32(v))
	}
	return v
}

// toU reinterprets a canonically stored value of kind k as unsigned at k's
// width.
func toU(k ir.Kind, v int64) uint64 {
	switch k {
	case ir.KindI1:
		return uint64(v) & 1
	case ir.KindI8:
		return uint64(uint8(v))
	case ir.KindI32:
		return uint64(uint32(v))
	}
	return uint64(v)
}

package gpusim

import (
	"math"

	"uu/internal/ir"
)

// This file holds the plain scalar definition of every decoded
// compute/setp/conversion opcode. The generic closures of the threaded-code
// compiler (threaded.go) call these kernels per lane; its specialized
// closures restate the hot ones inline, and the reference core in
// refcore_test.go, which runs every scalar op through the kernels here, is
// what the differential tests hold those restatements to.

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

// evalIntOp executes one integer compute op (xAdd..xSMax) on canonically
// stored operands and returns the canonically truncated result. Division
// and remainder by zero yield 0 (the machine traps are out of scope).
func evalIntOp(op execOp, trunc uint8, aux uint64, a, b int64) int64 {
	var r int64
	switch op {
	case xAdd:
		r = a + b
	case xSub:
		r = a - b
	case xMul:
		r = a * b
	case xSDiv:
		if b != 0 {
			r = a / b
		}
	case xUDiv:
		if b != 0 {
			r = int64(toUTag(trunc, a) / toUTag(trunc, b))
		}
	case xSRem:
		if b != 0 {
			r = a % b
		}
	case xURem:
		if b != 0 {
			r = int64(toUTag(trunc, a) % toUTag(trunc, b))
		}
	case xShl:
		r = a << (uint64(b) & aux)
	case xLShr:
		r = int64(toUTag(trunc, a) >> (uint64(b) & aux))
	case xAShr:
		r = a >> (uint64(b) & aux)
	case xAnd:
		r = a & b
	case xOr:
		r = a | b
	case xXor:
		r = a ^ b
	case xSMin:
		r = min(a, b)
	case xSMax:
		r = max(a, b)
	}
	return truncTag(trunc, r)
}

// evalFloatOp executes one float compute op (xFAdd..xFloor); unary ops
// ignore b. rnd rounds the result to f32 precision.
func evalFloatOp(op execOp, rnd bool, a, b float64) float64 {
	var r float64
	switch op {
	case xFAdd:
		r = a + b
	case xFSub:
		r = a - b
	case xFMul:
		r = a * b
	case xFDiv:
		r = a / b
	case xPow:
		r = math.Pow(a, b)
	case xFMin:
		r = math.Min(a, b)
	case xFMax:
		r = math.Max(a, b)
	case xSqrt:
		r = math.Sqrt(a)
	case xFAbs:
		r = math.Abs(a)
	case xExp:
		r = math.Exp(a)
	case xLog:
		r = math.Log(a)
	case xSin:
		r = math.Sin(a)
	case xCos:
		r = math.Cos(a)
	case xFloor:
		r = math.Floor(a)
	}
	if rnd {
		r = float64(float32(r))
	}
	return r
}

// evalConvI executes an integer-result conversion (xTrunc/xZExt/xSExt/
// xFPToSI). aI and aF are the operand in both domains; each conversion
// reads only the domain its source type implies.
func evalConvI(op execOp, trunc uint8, aux uint64, aI int64, aF float64) int64 {
	switch op {
	case xTrunc:
		return truncTag(trunc, aI)
	case xZExt:
		// aux masks to the recorded source width — exact for every source
		// type, unlike the old 0/1-value heuristic.
		return int64(uint64(aI) & aux)
	case xSExt:
		return aI
	case xFPToSI:
		if math.IsNaN(aF) || math.IsInf(aF, 0) {
			return 0
		}
		return truncTag(trunc, int64(aF))
	}
	return 0
}

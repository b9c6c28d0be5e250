package gpusim

import (
	"fmt"
	"testing"

	"uu/internal/codegen"
	"uu/internal/interp"
	"uu/internal/ir"
)

// setpProgram builds a minimal VPTX program that compares its first two
// parameters with the given predicate at the given operand type and stores
// 1 or 0 (via selp) into the address held by the third parameter.
func setpProgram(t *ir.Type, pred ir.Pred) *codegen.Program {
	one := codegen.Operand{Reg: codegen.NoReg, Imm: ir.ConstInt(ir.I64, 1)}
	zero := codegen.Operand{Reg: codegen.NoReg, Imm: ir.ConstInt(ir.I64, 0)}
	blk := codegen.Block{Index: 0, Name: "entry", Instrs: []codegen.Instr{
		{Kind: codegen.KSetp, IROp: ir.OpICmp, Pred: pred, Type: t, Dst: 3,
			Srcs: []codegen.Operand{{Reg: 0}, {Reg: 1}}},
		{Kind: codegen.KSelp, Type: ir.I64, Dst: 4,
			Srcs: []codegen.Operand{{Reg: 3}, one, zero}},
		{Kind: codegen.KSt, Type: ir.I64, Dst: codegen.NoReg,
			Srcs: []codegen.Operand{{Reg: 4}, {Reg: 2}}},
		{Kind: codegen.KRet, Dst: codegen.NoReg},
	}}
	return &codegen.Program{
		Name:      "setp_unit",
		Blocks:    []codegen.Block{blk},
		NumRegs:   5,
		ParamRegs: []codegen.Reg{0, 1, 2},
		ParamTyps: []*ir.Type{t, t, ir.PointerTo(ir.I64)},
		IPDom:     []int{-1},
	}
}

// TestSetpUnsignedPredicates pins the unsigned compare semantics at every
// integer width: operands live in registers in canonical sign-extended
// form, so ULT/ULE/UGT/UGE must reinterpret them through the operand
// type's zero-extension mask rather than compare the int64 payloads. The
// -1 vs 1 cases are the regression: a signed compare (or a compare of the
// raw payloads) orders them the other way.
func TestSetpUnsignedPredicates(t *testing.T) {
	types := []*ir.Type{ir.I8, ir.I32, ir.I64}
	preds := []ir.Pred{ir.ULT, ir.ULE, ir.UGT, ir.UGE}
	pairs := [][2]int64{{-1, 1}, {1, -1}, {-1, -1}, {5, 3}, {0, -128}}

	eval := func(pred ir.Pred, a, b uint64) bool {
		switch pred {
		case ir.ULT:
			return a < b
		case ir.ULE:
			return a <= b
		case ir.UGT:
			return a > b
		case ir.UGE:
			return a >= b
		}
		panic("unreachable")
	}

	for _, typ := range types {
		for _, pred := range preds {
			p := setpProgram(typ, pred)
			for _, pair := range pairs {
				// Canonical register form: sign-extended, as the simulator
				// keeps all integer registers.
				a := ir.ConstInt(typ, pair[0]).Int
				b := ir.ConstInt(typ, pair[1]).Int
				mask := uMask(typ)
				want := int64(0)
				if eval(pred, uint64(a)&mask, uint64(b)&mask) {
					want = 1
				}
				name := fmt.Sprintf("%s_%s_%d_%d", typ, pred, pair[0], pair[1])

				// Full simulator path (compileSetpI's closures).
				mem := interp.NewMemory(8)
				args := []interp.Value{interp.IntVal(a), interp.IntVal(b), interp.IntVal(0)}
				if _, err := Run(p, args, mem, Launch{GridDim: 1, BlockDim: 1}, V100()); err != nil {
					t.Fatalf("%s: sim: %v", name, err)
				}
				if got := mem.I64(0, 0); got != want {
					t.Errorf("%s: run loop: got %d, want %d", name, got, want)
				}

				// The reference core's evalScalar must agree.
				rc := &refCore{regs: []interp.Value{interp.IntVal(a), interp.IntVal(b)}}
				if got := rc.evalScalar(&p.Blocks[0].Instrs[0], 0).I; got != want {
					t.Errorf("%s: evalScalar: got %d, want %d", name, got, want)
				}
			}
		}
	}
}

// TestSetpSignedStillSigned guards against over-masking: signed predicates
// must keep comparing the sign-extended payloads.
func TestSetpSignedStillSigned(t *testing.T) {
	for _, typ := range []*ir.Type{ir.I8, ir.I32, ir.I64} {
		p := setpProgram(typ, ir.SLT)
		mem := interp.NewMemory(8)
		args := []interp.Value{interp.IntVal(-1), interp.IntVal(1), interp.IntVal(0)}
		if _, err := Run(p, args, mem, Launch{GridDim: 1, BlockDim: 1}, V100()); err != nil {
			t.Fatalf("%s: sim: %v", typ, err)
		}
		if got := mem.I64(0, 0); got != 1 {
			t.Errorf("%s: slt -1 < 1: got %d, want 1", typ, got)
		}
	}
}

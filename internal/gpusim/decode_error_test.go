package gpusim

import (
	"errors"
	"strings"
	"testing"

	"uu/internal/codegen"
	"uu/internal/interp"
	"uu/internal/ir"
)

// progWith wraps a single malformed instruction (plus a ret) in a minimal
// one-block program.
func progWith(in codegen.Instr) *codegen.Program {
	blk := codegen.Block{Index: 0, Name: "entry", Instrs: []codegen.Instr{
		in,
		{Kind: codegen.KRet, Dst: codegen.NoReg},
	}}
	return &codegen.Program{
		Name:    "malformed_unit",
		Blocks:  []codegen.Block{blk},
		NumRegs: 4,
		IPDom:   []int{-1},
	}
}

// TestDecodeMalformedProgramReturnsError pins the decode error contract:
// a Program the decoder cannot handle surfaces a wrapped ErrDecode through
// Run instead of panicking — malformed input is the caller's bug, not a
// simulator invariant.
func TestDecodeMalformedProgramReturnsError(t *testing.T) {
	cases := []struct {
		name string
		in   codegen.Instr
		want string
	}{
		{
			name: "bad special register",
			in:   codegen.Instr{Kind: codegen.KSpecial, IROp: ir.OpAdd, Type: ir.I64, Dst: 0},
			want: "bad special register",
		},
		{
			name: "zext without source type",
			in: codegen.Instr{Kind: codegen.KCvt, IROp: ir.OpZExt, Type: ir.I64, Dst: 0,
				Srcs: []codegen.Operand{{Reg: 1}}},
			want: "zext without a recorded source type",
		},
		{
			name: "bad conversion op",
			in: codegen.Instr{Kind: codegen.KCvt, IROp: ir.OpAdd, Type: ir.I64, Dst: 0,
				Srcs: []codegen.Operand{{Reg: 1}}},
			want: "bad conversion",
		},
		{
			name: "bad float op",
			in: codegen.Instr{Kind: codegen.KCompute, IROp: ir.OpAdd, Type: ir.F64, Dst: 0,
				Srcs: []codegen.Operand{{Reg: 1}, {Reg: 2}}},
			want: "bad float op",
		},
		{
			name: "bad int op",
			in: codegen.Instr{Kind: codegen.KCompute, IROp: ir.OpFAdd, Type: ir.I64, Dst: 0,
				Srcs: []codegen.Operand{{Reg: 1}, {Reg: 2}}},
			want: "bad int op",
		},
		{
			name: "unhandled instruction kind",
			in:   codegen.Instr{Kind: codegen.Kind(250), Type: ir.I64, Dst: 0},
			want: "unhandled instruction kind",
		},
		{
			name: "destination past the registers",
			in: codegen.Instr{Kind: codegen.KCompute, IROp: ir.OpAdd, Type: ir.I64, Dst: 4,
				Srcs: []codegen.Operand{{Reg: 1}, {Reg: 2}}},
			want: "destination %r4 outside the program's 4 registers",
		},
		{
			name: "negative destination",
			in: codegen.Instr{Kind: codegen.KCompute, IROp: ir.OpAdd, Type: ir.I64, Dst: -2,
				Srcs: []codegen.Operand{{Reg: 1}, {Reg: 2}}},
			want: "destination %r-2 outside",
		},
		{
			name: "too many operands",
			in: codegen.Instr{Kind: codegen.KCompute, IROp: ir.OpAdd, Type: ir.I64, Dst: 0,
				Srcs: []codegen.Operand{{Reg: 0}, {Reg: 1}, {Reg: 2}, {Reg: 3}}},
			want: "operands",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := progWith(tc.in)
			mem := interp.NewMemory(1 << 12)
			_, err := Run(p, nil, mem, Launch{GridDim: 1, BlockDim: 32}, V100())
			if err == nil {
				t.Fatal("malformed program simulated without error")
			}
			if !errors.Is(err, ErrDecode) {
				t.Fatalf("error does not wrap ErrDecode: %v", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			// The failure is cached with the decoded form: a second run must
			// return the same decode error, not a stale or nil result.
			_, err2 := Run(p, nil, mem, Launch{GridDim: 1, BlockDim: 32}, V100())
			if err2 == nil || !errors.Is(err2, ErrDecode) {
				t.Fatalf("second run lost the cached decode error: %v", err2)
			}
		})
	}
}

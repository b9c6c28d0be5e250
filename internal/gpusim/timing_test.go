package gpusim

import (
	"testing"

	"uu/internal/codegen"
	"uu/internal/ir"
)

func TestIssueCosts(t *testing.T) {
	cases := []struct {
		in    codegen.Instr
		issue float64
		lat   uint8
	}{
		{codegen.Instr{Kind: codegen.KMov, Type: ir.I64}, 1, lat5},
		{codegen.Instr{Kind: codegen.KCvt, IROp: ir.OpSExt, Type: ir.I64}, 1, lat5},
		{codegen.Instr{Kind: codegen.KBra}, 2, lat5},
		{codegen.Instr{Kind: codegen.KRet}, 2, lat5},
		{codegen.Instr{Kind: codegen.KLd, Type: ir.F64}, 1, latMem},
		{codegen.Instr{Kind: codegen.KSpecial, IROp: ir.OpTID}, 1, lat5},
		{codegen.Instr{Kind: codegen.KCompute, IROp: ir.OpAdd, Type: ir.I64}, 1, lat5},
		{codegen.Instr{Kind: codegen.KCompute, IROp: ir.OpSDiv, Type: ir.I64}, 8, lat24},
		{codegen.Instr{Kind: codegen.KCompute, IROp: ir.OpFDiv, Type: ir.F64}, 6, lat24},
		{codegen.Instr{Kind: codegen.KCompute, IROp: ir.OpSqrt, Type: ir.F64}, 4, lat20},
	}
	for _, tc := range cases {
		if issue, lat := timingOf(&tc.in); issue != tc.issue || lat != tc.lat {
			t.Errorf("timingOf(%v/%v) = %v, class %d; want %v, class %d", tc.in.Kind, tc.in.IROp, issue, lat, tc.issue, tc.lat)
		}
	}
}

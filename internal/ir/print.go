package ir

import (
	"fmt"
	"strings"
)

// String renders the function in the textual IR syntax accepted by irparse.
func (f *Function) String() string {
	f.live()
	var sb strings.Builder
	sb.WriteString("func @")
	sb.WriteString(f.Name)
	sb.WriteString("(")
	for i, p := range f.Params {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(p.Typ.String())
		if p.Restrict {
			sb.WriteString(" noalias")
		}
		sb.WriteString(" %")
		sb.WriteString(p.Name)
	}
	sb.WriteString(")")
	if f.RetTyp != Void {
		sb.WriteString(" -> ")
		sb.WriteString(f.RetTyp.String())
	}
	sb.WriteString(" {\n")
	for _, b := range f.blocks {
		sb.WriteString(b.Name)
		sb.WriteString(":\n")
		for _, in := range b.instrs {
			sb.WriteString("  ")
			sb.WriteString(in.String())
			sb.WriteString("\n")
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

func typedRef(v Value) string { return v.Type().String() + " " + v.Ref() }

// String renders one instruction in the textual IR syntax.
func (in *Instr) String() string {
	var sb strings.Builder
	if in.Typ != Void {
		sb.WriteString(in.Ref())
		sb.WriteString(" = ")
	}
	sb.WriteString(in.Op.String())
	switch in.Op {
	case OpICmp, OpFCmp:
		sb.WriteString(" " + in.Pred.String())
		sb.WriteString(" " + typedRef(in.args[0]) + ", " + typedRef(in.args[1]))
	case OpPhi:
		sb.WriteString(" " + in.Typ.String())
		for i := range in.args {
			if i > 0 {
				sb.WriteString(",")
			}
			sb.WriteString(fmt.Sprintf(" [ %s, %%%s ]", in.args[i].Ref(), in.blocks[i].Name))
		}
	case OpTrunc, OpZExt, OpSExt, OpSIToFP, OpFPToSI, OpFPExt, OpFPTrunc:
		sb.WriteString(" " + typedRef(in.args[0]) + " to " + in.Typ.String())
	case OpAlloca:
		sb.WriteString(" " + in.Typ.Elem.String())
	case OpBr:
		sb.WriteString(" %" + in.blocks[0].Name)
	case OpCondBr:
		sb.WriteString(" " + typedRef(in.args[0]))
		sb.WriteString(", %" + in.blocks[0].Name + ", %" + in.blocks[1].Name)
	case OpRet:
		if len(in.args) > 0 {
			sb.WriteString(" " + typedRef(in.args[0]))
		}
	default:
		for i, a := range in.args {
			if i > 0 {
				sb.WriteString(",")
			}
			sb.WriteString(" " + typedRef(a))
		}
	}
	return sb.String()
}

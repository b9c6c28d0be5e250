// Package irparse parses the textual IR syntax emitted by ir's printers.
// It exists chiefly so that transformation tests can state their input CFGs
// directly as text; ParseFunc(f.String()) round-trips with the printer.
package irparse

import (
	"fmt"
	"strconv"
	"strings"

	"uu/internal/ir"
)

// ParseFunc parses text holding exactly one function.
func ParseFunc(src string) (*ir.Function, error) {
	p := &parser{lines: strings.Split(src, "\n")}
	var funcs []*ir.Function
	for {
		p.skipBlank()
		if p.eof() {
			break
		}
		f, err := p.parseFunc()
		if err != nil {
			return nil, err
		}
		funcs = append(funcs, f)
	}
	if len(funcs) != 1 {
		return nil, fmt.Errorf("irparse: expected exactly one function, got %d", len(funcs))
	}
	return funcs[0], nil
}

type parser struct {
	lines []string
	pos   int
}

func (p *parser) eof() bool { return p.pos >= len(p.lines) }

func (p *parser) skipBlank() {
	for !p.eof() {
		l := strings.TrimSpace(p.lines[p.pos])
		if l == "" || strings.HasPrefix(l, ";") || strings.HasPrefix(l, "//") {
			p.pos++
			continue
		}
		return
	}
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("irparse: line %d: %s", p.pos+1, fmt.Sprintf(format, args...))
}

// rawOperand is an unresolved operand: a type plus a reference token.
type rawOperand struct {
	typ *ir.Type
	ref string // "%name" or a literal
}

// rawInstr is an instruction before operand resolution.
type rawInstr struct {
	line   int
	result string // "" if void
	op     ir.Op
	pred   ir.Pred
	typ    *ir.Type // result type
	ops    []rawOperand
	blocks []string // block label references
}

func (p *parser) parseFunc() (*ir.Function, error) {
	header := strings.TrimSpace(p.lines[p.pos])
	if !strings.HasPrefix(header, "func @") {
		return nil, p.errf("expected 'func @name(...)', got %q", header)
	}
	open := strings.Index(header, "(")
	close_ := strings.LastIndex(header, ")")
	if open < 0 || close_ < open {
		return nil, p.errf("malformed function header")
	}
	name := header[len("func @"):open]
	retTyp := ir.Void
	rest := strings.TrimSpace(header[close_+1:])
	rest = strings.TrimSuffix(rest, "{")
	rest = strings.TrimSpace(rest)
	if strings.HasPrefix(rest, "->") {
		retTyp = ir.TypeByName(strings.TrimSpace(rest[2:]))
		if retTyp == nil {
			return nil, p.errf("bad return type %q", rest)
		}
	} else if rest != "" {
		return nil, p.errf("unexpected trailing %q in header", rest)
	}
	f := ir.NewFunction(name, retTyp)
	// Parameters.
	paramsSrc := strings.TrimSpace(header[open+1 : close_])
	if paramsSrc != "" {
		for _, ps := range strings.Split(paramsSrc, ",") {
			fields := strings.Fields(strings.TrimSpace(ps))
			if len(fields) < 2 {
				return nil, p.errf("bad parameter %q", ps)
			}
			t, err := p.parseType(fields[0])
			if err != nil {
				return nil, err
			}
			restrict := false
			nameField := fields[len(fields)-1]
			if len(fields) == 3 {
				if fields[1] != "noalias" {
					return nil, p.errf("bad parameter attribute %q", fields[1])
				}
				restrict = true
			}
			if !strings.HasPrefix(nameField, "%") {
				return nil, p.errf("parameter name must start with %%: %q", nameField)
			}
			f.AddParam(nameField[1:], t, restrict)
		}
	}
	p.pos++

	// First pass: collect blocks and raw instructions.
	type rawBlock struct {
		name   string
		instrs []*rawInstr
	}
	var rblocks []*rawBlock
	var cur *rawBlock
	for {
		p.skipBlank()
		if p.eof() {
			return nil, p.errf("unterminated function %s", name)
		}
		line := strings.TrimSpace(p.lines[p.pos])
		if line == "}" {
			p.pos++
			break
		}
		if strings.HasSuffix(line, ":") && !strings.Contains(line, " ") {
			cur = &rawBlock{name: strings.TrimSuffix(line, ":")}
			rblocks = append(rblocks, cur)
			p.pos++
			continue
		}
		if cur == nil {
			return nil, p.errf("instruction before first block label")
		}
		ri, err := p.parseInstrLine(line)
		if err != nil {
			return nil, err
		}
		cur.instrs = append(cur.instrs, ri)
		p.pos++
	}

	// Create blocks.
	blockByName := map[string]*ir.Block{}
	for _, rb := range rblocks {
		b := f.NewBlock(rb.name)
		if b.Name != rb.name {
			return nil, fmt.Errorf("irparse: duplicate block label %q", rb.name)
		}
		blockByName[rb.name] = b
	}

	// Create instruction shells and the name table.
	valueByName := map[string]ir.Value{}
	for _, prm := range f.Params {
		valueByName[prm.Name] = prm
	}
	instrOf := map[*rawInstr]*ir.Instr{}
	for _, rb := range rblocks {
		b := blockByName[rb.name]
		for _, ri := range rb.instrs {
			in := ir.NewInstr(ri.op, ri.typ)
			in.Pred = ri.pred
			if ri.result != "" {
				if _, dup := valueByName[ri.result]; dup {
					return nil, fmt.Errorf("irparse: line %d: duplicate value name %%%s", ri.line+1, ri.result)
				}
				in.SetName(ri.result)
				valueByName[ri.result] = in
			}
			instrOf[ri] = in
			_ = b
		}
	}

	// Resolve operands and append in order.
	for _, rb := range rblocks {
		b := blockByName[rb.name]
		for _, ri := range rb.instrs {
			in := instrOf[ri]
			for _, ro := range ri.ops {
				v, err := resolveOperand(ro, valueByName)
				if err != nil {
					return nil, fmt.Errorf("irparse: line %d: %v", ri.line+1, err)
				}
				in.AddArg(v)
			}
			for _, bn := range ri.blocks {
				tb := blockByName[bn]
				if tb == nil {
					return nil, fmt.Errorf("irparse: line %d: unknown block %%%s", ri.line+1, bn)
				}
				in.AddBlockArg(tb)
			}
			b.Append(in)
		}
	}
	return f, nil
}

func (p *parser) parseType(s string) (*ir.Type, error) {
	base := s
	stars := 0
	for strings.HasSuffix(base, "*") {
		base = base[:len(base)-1]
		stars++
	}
	t := ir.TypeByName(base)
	if t == nil {
		return nil, p.errf("unknown type %q", s)
	}
	for i := 0; i < stars; i++ {
		t = ir.PointerTo(t)
	}
	return t, nil
}

// parseInstrLine parses one instruction into raw form.
func (p *parser) parseInstrLine(line string) (*rawInstr, error) {
	ri := &rawInstr{line: p.pos, pred: ir.PredInvalid}
	rest := line
	if i := strings.Index(line, " = "); i >= 0 && strings.HasPrefix(line, "%") {
		ri.result = strings.TrimSpace(line[1:i])
		rest = strings.TrimSpace(line[i+3:])
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return nil, p.errf("empty instruction")
	}
	op := ir.OpByName(fields[0])
	if op == ir.OpInvalid {
		return nil, p.errf("unknown opcode %q", fields[0])
	}
	ri.op = op
	args := strings.TrimSpace(rest[len(fields[0]):])

	parseTypedList := func(s string) ([]rawOperand, error) {
		var out []rawOperand
		if strings.TrimSpace(s) == "" {
			return out, nil
		}
		for _, part := range strings.Split(s, ",") {
			fs := strings.Fields(strings.TrimSpace(part))
			if len(fs) != 2 {
				return nil, p.errf("bad operand %q", part)
			}
			t, err := p.parseType(fs[0])
			if err != nil {
				return nil, err
			}
			out = append(out, rawOperand{t, fs[1]})
		}
		return out, nil
	}

	switch op {
	case ir.OpICmp, ir.OpFCmp:
		fs := strings.Fields(args)
		if len(fs) < 1 {
			return nil, p.errf("icmp/fcmp needs predicate")
		}
		ri.pred = ir.PredByName(fs[0])
		if ri.pred == ir.PredInvalid {
			return nil, p.errf("bad predicate %q", fs[0])
		}
		ops, err := parseTypedList(strings.TrimSpace(args[len(fs[0]):]))
		if err != nil {
			return nil, err
		}
		ri.ops = ops
		ri.typ = ir.I1
	case ir.OpPhi:
		fs := strings.Fields(args)
		if len(fs) < 1 {
			return nil, p.errf("phi needs a type")
		}
		t, err := p.parseType(fs[0])
		if err != nil {
			return nil, err
		}
		ri.typ = t
		rest := strings.TrimSpace(args[len(fs[0]):])
		for rest != "" {
			open := strings.Index(rest, "[")
			cls := strings.Index(rest, "]")
			if open < 0 || cls < open {
				return nil, p.errf("bad phi incoming list %q", rest)
			}
			pair := strings.Split(rest[open+1:cls], ",")
			if len(pair) != 2 {
				return nil, p.errf("bad phi incoming %q", rest[open+1:cls])
			}
			ref := strings.TrimSpace(pair[0])
			blk := strings.TrimSpace(pair[1])
			if !strings.HasPrefix(blk, "%") {
				return nil, p.errf("phi incoming block must be %%label")
			}
			ri.ops = append(ri.ops, rawOperand{t, ref})
			ri.blocks = append(ri.blocks, blk[1:])
			rest = strings.TrimSpace(rest[cls+1:])
			rest = strings.TrimPrefix(rest, ",")
			rest = strings.TrimSpace(rest)
		}
	case ir.OpTrunc, ir.OpZExt, ir.OpSExt, ir.OpSIToFP, ir.OpFPToSI, ir.OpFPExt, ir.OpFPTrunc:
		parts := strings.Split(args, " to ")
		if len(parts) != 2 {
			return nil, p.errf("conversion needs 'to <type>'")
		}
		ops, err := parseTypedList(parts[0])
		if err != nil {
			return nil, err
		}
		t, err := p.parseType(strings.TrimSpace(parts[1]))
		if err != nil {
			return nil, err
		}
		ri.ops = ops
		ri.typ = t
	case ir.OpAlloca:
		t, err := p.parseType(strings.TrimSpace(args))
		if err != nil {
			return nil, err
		}
		ri.typ = ir.PointerTo(t)
	case ir.OpBr:
		lbl := strings.TrimSpace(args)
		if !strings.HasPrefix(lbl, "%") {
			return nil, p.errf("br needs %%label")
		}
		ri.blocks = []string{lbl[1:]}
		ri.typ = ir.Void
	case ir.OpCondBr:
		parts := strings.Split(args, ",")
		if len(parts) != 3 {
			return nil, p.errf("condbr needs cond and two labels")
		}
		ops, err := parseTypedList(parts[0])
		if err != nil {
			return nil, err
		}
		ri.ops = ops
		for _, lp := range parts[1:] {
			lbl := strings.TrimSpace(lp)
			if !strings.HasPrefix(lbl, "%") {
				return nil, p.errf("condbr target must be %%label")
			}
			ri.blocks = append(ri.blocks, lbl[1:])
		}
		ri.typ = ir.Void
	case ir.OpRet:
		ops, err := parseTypedList(args)
		if err != nil {
			return nil, err
		}
		ri.ops = ops
		ri.typ = ir.Void
	default:
		ops, err := parseTypedList(args)
		if err != nil {
			return nil, err
		}
		ri.ops = ops
		ri.typ = resultType(op, ops)
		if ri.typ == nil {
			return nil, p.errf("cannot infer result type for %s", op)
		}
	}
	return ri, nil
}

// resultType infers the result type of ops whose printer syntax does not
// state it explicitly.
func resultType(op ir.Op, ops []rawOperand) *ir.Type {
	switch op {
	case ir.OpStore, ir.OpBarrier:
		return ir.Void
	case ir.OpTID, ir.OpNTID, ir.OpCTAID, ir.OpNCTAID:
		return ir.I32
	case ir.OpLoad:
		if len(ops) == 1 && ops[0].typ.IsPtr() {
			return ops[0].typ.Elem
		}
	case ir.OpSelect:
		if len(ops) == 3 {
			return ops[1].typ
		}
	case ir.OpGEP:
		if len(ops) == 2 {
			return ops[0].typ
		}
	default:
		if len(ops) >= 1 {
			return ops[0].typ
		}
	}
	return nil
}

func resolveOperand(ro rawOperand, values map[string]ir.Value) (ir.Value, error) {
	if strings.HasPrefix(ro.ref, "%") {
		v, ok := values[ro.ref[1:]]
		if !ok {
			return nil, fmt.Errorf("undefined value %s", ro.ref)
		}
		if v.Type() != ro.typ {
			return nil, fmt.Errorf("operand %s has type %s, annotated %s", ro.ref, v.Type(), ro.typ)
		}
		return v, nil
	}
	if ro.typ.IsFloat() {
		fv, err := strconv.ParseFloat(ro.ref, 64)
		if err != nil {
			return nil, fmt.Errorf("bad float literal %q", ro.ref)
		}
		return ir.ConstFloat(ro.typ, fv), nil
	}
	if ro.typ.IsInt() {
		iv, err := strconv.ParseInt(ro.ref, 10, 64)
		if err != nil {
			// Allow large unsigned spellings.
			uv, uerr := strconv.ParseUint(ro.ref, 10, 64)
			if uerr != nil {
				return nil, fmt.Errorf("bad int literal %q", ro.ref)
			}
			iv = int64(uv)
		}
		return ir.ConstInt(ro.typ, iv), nil
	}
	return nil, fmt.Errorf("cannot parse literal %q of type %s", ro.ref, ro.typ)
}

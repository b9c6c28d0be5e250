package lang

import (
	"fmt"

	"uu/internal/ir"
	"uu/internal/transform"
)

// Compile parses MiniCU source and lowers every kernel to IR. Local
// variables (and scalar parameters, which are assignable in C) go through
// allocas that transform.Mem2Reg later promotes — the same shape Clang
// hands to LLVM.
func Compile(src string) (*ir.Module, error) {
	prog, err := ParseProgram(src)
	if err != nil {
		return nil, err
	}
	m := ir.NewModule("minicu")
	for _, k := range prog.Kernels {
		f, err := LowerKernel(k)
		if err != nil {
			return nil, err
		}
		m.AddFunction(f)
	}
	return m, nil
}

// CompileKernel compiles a single-kernel source, returning an error on a
// parse/lowering failure or when the source does not define exactly one
// kernel. Use this on any input that is not a compile-time constant.
func CompileKernel(src string) (*ir.Function, error) {
	m, err := Compile(src)
	if err != nil {
		return nil, err
	}
	if len(m.Funcs()) != 1 {
		return nil, fmt.Errorf("lang: expected 1 kernel, got %d", len(m.Funcs()))
	}
	return m.Funcs()[0], nil
}

// MustCompileKernel compiles a single-kernel source, panicking on error;
// intended for the benchmark kernel definitions, which are constant.
func MustCompileKernel(src string) *ir.Function {
	f, err := CompileKernel(src)
	if err != nil {
		panic(err)
	}
	return f
}

// LowerKernel lowers one parsed kernel to an IR function.
func LowerKernel(k *Kernel) (*ir.Function, error) {
	f := ir.NewFunction(k.Name, ir.Void)
	lw := &lowerer{f: f}
	entry := f.NewBlock("entry")
	lw.b = ir.NewBuilder(entry)
	lw.entry = entry
	lw.pushScope()

	for _, prm := range k.Params {
		t, err := irType(prm.Type)
		if err != nil {
			return nil, err
		}
		p := f.AddParam(prm.Name, t, prm.Restrict)
		if prm.Type.Ptr {
			lw.define(prm.Name, &local{typ: prm.Type, ptrVal: p})
			continue
		}
		// Scalar parameters are assignable in C; shadow them in an alloca.
		slot := lw.b.Alloca(t, prm.Name+".addr")
		lw.b.Store(p, slot)
		lw.define(prm.Name, &local{typ: prm.Type, slot: slot})
	}

	if err := lw.lowerBlock(k.Body); err != nil {
		return nil, err
	}
	// Implicit return; also terminate any dangling dead blocks.
	for _, b := range f.Blocks() {
		if b.Term() == nil {
			ir.NewBuilder(b).Ret(nil)
		}
	}
	transform.RemoveUnreachable(f)
	if err := ir.Verify(f); err != nil {
		return nil, fmt.Errorf("lang: internal error lowering %s: %w\n%s", k.Name, err, f.String())
	}
	return f, nil
}

type local struct {
	typ    TypeName
	slot   *ir.Instr // alloca for scalars
	ptrVal ir.Value  // pointer parameters are used directly
}

type lowerer struct {
	f     *ir.Function
	b     *ir.Builder
	entry *ir.Block

	scopes  []map[string]*local
	breakTo []*ir.Block
	contTo  []*ir.Block
}

func (l *lowerer) pushScope() { l.scopes = append(l.scopes, map[string]*local{}) }
func (l *lowerer) popScope()  { l.scopes = l.scopes[:len(l.scopes)-1] }

func (l *lowerer) define(name string, lo *local) { l.scopes[len(l.scopes)-1][name] = lo }

func (l *lowerer) lookup(name string) *local {
	for i := len(l.scopes) - 1; i >= 0; i-- {
		if lo, ok := l.scopes[i][name]; ok {
			return lo
		}
	}
	return nil
}

// newAlloca creates an alloca in the entry block (mem2reg scans only there).
func (l *lowerer) newAlloca(t *ir.Type, name string) *ir.Instr {
	in := ir.NewInstr(ir.OpAlloca, ir.PointerTo(t))
	in.SetName(name)
	in.SetLoc(l.b.CurLoc())
	if term := l.entry.Term(); term != nil {
		l.entry.InsertBefore(in, term)
	} else if l.b.Block() == l.entry {
		l.b.Block().Append(in)
		return in
	} else {
		l.entry.Append(in)
	}
	return in
}

func irType(t TypeName) (*ir.Type, error) {
	var base *ir.Type
	switch t.Base {
	case "bool":
		base = ir.I1
	case "int":
		base = ir.I32
	case "long":
		base = ir.I64
	case "float":
		base = ir.F32
	case "double":
		base = ir.F64
	default:
		return nil, fmt.Errorf("lang: unknown type %q", t.Base)
	}
	if t.Ptr {
		return ir.PointerTo(base), nil
	}
	return base, nil
}

func rank(t TypeName) int {
	switch t.Base {
	case "bool":
		return 0
	case "int":
		return 1
	case "long":
		return 2
	case "float":
		return 3
	case "double":
		return 4
	}
	return -1
}

func isFloatT(t TypeName) bool    { return t.Base == "float" || t.Base == "double" }
func isIntT(t TypeName) bool      { return t.Base == "int" || t.Base == "long" || t.Base == "bool" }
func scalar(base string) TypeName { return TypeName{Base: base} }

// convert coerces v from type `from` to type `to`.
func (l *lowerer) convert(v ir.Value, from, to TypeName) (ir.Value, error) {
	if from == to {
		return v, nil
	}
	if from.Ptr || to.Ptr {
		return nil, fmt.Errorf("lang: cannot convert %s to %s", from, to)
	}
	ft, _ := irType(from)
	tt, _ := irType(to)
	switch {
	case isIntT(from) && isIntT(to):
		if to.Base == "bool" {
			return l.b.ICmp(ir.NE, v, ir.ConstInt(ft, 0)), nil
		}
		if ft.Bits() < tt.Bits() {
			if from.Base == "bool" {
				return l.b.Conv(ir.OpZExt, v, tt), nil
			}
			return l.b.Conv(ir.OpSExt, v, tt), nil
		}
		return l.b.Conv(ir.OpTrunc, v, tt), nil
	case isIntT(from) && isFloatT(to):
		if from.Base == "bool" {
			v = l.b.Conv(ir.OpZExt, v, ir.I32)
		}
		return l.b.Conv(ir.OpSIToFP, v, tt), nil
	case isFloatT(from) && isIntT(to):
		if to.Base == "bool" {
			return l.b.FCmp(ir.ONE, v, ir.ConstFloat(ft, 0)), nil
		}
		return l.b.Conv(ir.OpFPToSI, v, tt), nil
	case isFloatT(from) && isFloatT(to):
		if ft.Bits() < tt.Bits() {
			return l.b.Conv(ir.OpFPExt, v, tt), nil
		}
		return l.b.Conv(ir.OpFPTrunc, v, tt), nil
	}
	return nil, fmt.Errorf("lang: cannot convert %s to %s", from, to)
}

// usualConv applies the usual arithmetic conversions to a pair of operands
// and returns the common type.
func (l *lowerer) usualConv(a ir.Value, at TypeName, b ir.Value, bt TypeName) (ir.Value, ir.Value, TypeName, error) {
	common := at
	if rank(bt) > rank(at) {
		common = bt
	}
	if common.Base == "bool" {
		common = scalar("int")
	}
	ca, err := l.convert(a, at, common)
	if err != nil {
		return nil, nil, common, err
	}
	cb, err := l.convert(b, bt, common)
	if err != nil {
		return nil, nil, common, err
	}
	return ca, cb, common, nil
}

// ---------- statements ----------

func (l *lowerer) lowerBlock(b *BlockStmt) error {
	l.pushScope()
	defer l.popScope()
	for _, s := range b.Stmts {
		if l.b.Block().Term() != nil {
			// Unreachable trailing code; emit into a discard block.
			l.b.SetBlock(l.f.NewBlock("dead"))
		}
		if err := l.lowerStmt(s); err != nil {
			return err
		}
	}
	return nil
}

// stmtLine returns the 1-based source line of a statement, or 0 for block
// statements (which have no line of their own).
func stmtLine(s Stmt) int {
	switch st := s.(type) {
	case *DeclStmt:
		return st.Line
	case *AssignStmt:
		return st.Line
	case *IncDecStmt:
		return st.Line
	case *IfStmt:
		return st.Line
	case *WhileStmt:
		return st.Line
	case *DoWhileStmt:
		return st.Line
	case *ForStmt:
		return st.Line
	case *BreakStmt:
		return st.Line
	case *ContinueStmt:
		return st.Line
	case *ReturnStmt:
		return st.Line
	case *ExprStmt:
		return st.Line
	}
	return 0
}

func (l *lowerer) lowerStmt(s Stmt) error {
	if line := stmtLine(s); line > 0 {
		l.b.SetLoc(ir.Loc{Line: int32(line)})
	}
	switch st := s.(type) {
	case *BlockStmt:
		return l.lowerBlock(st)
	case *DeclStmt:
		return l.lowerDecl(st)
	case *AssignStmt:
		return l.lowerAssign(st)
	case *IncDecStmt:
		op := "+="
		if st.Op == "--" {
			op = "-="
		}
		return l.lowerAssign(&AssignStmt{LHS: st.LHS, Op: op, RHS: &IntLit{Value: 1}, Line: st.Line})
	case *IfStmt:
		return l.lowerIf(st)
	case *WhileStmt:
		return l.lowerWhile(st)
	case *DoWhileStmt:
		return l.lowerDoWhile(st)
	case *ForStmt:
		return l.lowerFor(st)
	case *BreakStmt:
		if len(l.breakTo) == 0 {
			return &Error{st.Line, 0, "break outside loop"}
		}
		l.b.Br(l.breakTo[len(l.breakTo)-1])
		return nil
	case *ContinueStmt:
		if len(l.contTo) == 0 {
			return &Error{st.Line, 0, "continue outside loop"}
		}
		l.b.Br(l.contTo[len(l.contTo)-1])
		return nil
	case *ReturnStmt:
		l.b.Ret(nil)
		return nil
	case *ExprStmt:
		_, _, err := l.lowerExpr(st.X)
		return err
	}
	return fmt.Errorf("lang: unknown statement %T", s)
}

func (l *lowerer) lowerDecl(st *DeclStmt) error {
	if st.Type.Ptr {
		return &Error{st.Line, 0, "pointer-typed locals are not supported"}
	}
	if l.scopes[len(l.scopes)-1][st.Name] != nil {
		return &Error{st.Line, 0, "redeclaration of " + st.Name}
	}
	t, err := irType(st.Type)
	if err != nil {
		return err
	}
	slot := l.newAlloca(t, st.Name)
	l.define(st.Name, &local{typ: st.Type, slot: slot})
	if st.Init != nil {
		v, vt, err := l.lowerExpr(st.Init)
		if err != nil {
			return err
		}
		cv, err := l.convert(v, vt, st.Type)
		if err != nil {
			return &Error{st.Line, 0, err.Error()}
		}
		l.b.Store(cv, slot)
	}
	return nil
}

var compoundOps = map[string]string{
	"+=": "+", "-=": "-", "*=": "*", "/=": "/", "%=": "%",
	"<<=": "<<", ">>=": ">>", "&=": "&", "|=": "|", "^=": "^",
}

func (l *lowerer) lowerAssign(st *AssignStmt) error {
	// Compute the store destination and the current value lazily.
	switch lhs := st.LHS.(type) {
	case *IdentExpr:
		lo := l.lookup(lhs.Name)
		if lo == nil {
			return &Error{lhs.Line, 0, "undefined variable " + lhs.Name}
		}
		if lo.slot == nil {
			return &Error{lhs.Line, 0, "cannot assign to pointer parameter " + lhs.Name}
		}
		rhs := st.RHS
		if op, ok := compoundOps[st.Op]; ok {
			rhs = &BinaryExpr{Op: op, L: &IdentExpr{Name: lhs.Name, Line: lhs.Line}, R: st.RHS, Line: st.Line}
		}
		v, vt, err := l.lowerExpr(rhs)
		if err != nil {
			return err
		}
		cv, err := l.convert(v, vt, lo.typ)
		if err != nil {
			return &Error{st.Line, 0, err.Error()}
		}
		l.b.Store(cv, lo.slot)
		return nil
	case *IndexExpr:
		addr, elemT, err := l.lowerAddr(lhs)
		if err != nil {
			return err
		}
		var v ir.Value
		var vt TypeName
		if op, ok := compoundOps[st.Op]; ok {
			cur := l.b.Load(addr)
			rv, rt, err := l.lowerExpr(st.RHS)
			if err != nil {
				return err
			}
			v, vt, err = l.binOp(op, cur, elemT, rv, rt, st.Line)
			if err != nil {
				return err
			}
		} else {
			v, vt, err = l.lowerExpr(st.RHS)
			if err != nil {
				return err
			}
		}
		cv, err := l.convert(v, vt, elemT)
		if err != nil {
			return &Error{st.Line, 0, err.Error()}
		}
		l.b.Store(cv, addr)
		return nil
	}
	return &Error{st.Line, 0, "invalid assignment target"}
}

func (l *lowerer) lowerIf(st *IfStmt) error {
	cond, ct, err := l.lowerExpr(st.Cond)
	if err != nil {
		return err
	}
	cb, err := l.convert(cond, ct, scalar("bool"))
	if err != nil {
		return &Error{st.Line, 0, err.Error()}
	}
	thenB := l.f.NewBlock("if.then")
	merge := l.f.NewBlock("if.end")
	elseB := merge
	if st.Else != nil {
		elseB = l.f.NewBlock("if.else")
	}
	l.b.CondBr(cb, thenB, elseB)
	l.b.SetBlock(thenB)
	if err := l.lowerBlock(st.Then); err != nil {
		return err
	}
	if l.b.Block().Term() == nil {
		l.b.Br(merge)
	}
	if st.Else != nil {
		l.b.SetBlock(elseB)
		if err := l.lowerStmt(st.Else); err != nil {
			return err
		}
		if l.b.Block().Term() == nil {
			l.b.Br(merge)
		}
	}
	l.b.SetBlock(merge)
	return nil
}

func (l *lowerer) lowerWhile(st *WhileStmt) error {
	header := l.f.NewBlock("while.cond")
	exit := l.f.NewBlock("while.end")
	latch := l.f.NewBlock("while.latch")
	l.b.Br(header)
	l.b.SetBlock(header)
	cond, ct, err := l.lowerExpr(st.Cond)
	if err != nil {
		return err
	}
	cb, err := l.convert(cond, ct, scalar("bool"))
	if err != nil {
		return &Error{st.Line, 0, err.Error()}
	}
	body := l.f.NewBlock("while.body")
	l.b.CondBr(cb, body, exit)
	l.b.SetBlock(body)
	l.breakTo = append(l.breakTo, exit)
	l.contTo = append(l.contTo, latch)
	err = l.lowerBlock(st.Body)
	l.breakTo = l.breakTo[:len(l.breakTo)-1]
	l.contTo = l.contTo[:len(l.contTo)-1]
	if err != nil {
		return err
	}
	// Loop-control branches attribute to the loop statement's own line.
	l.b.SetLoc(ir.Loc{Line: int32(st.Line)})
	if l.b.Block().Term() == nil {
		l.b.Br(latch)
	}
	l.b.SetBlock(latch)
	l.b.Br(header)
	l.b.SetBlock(exit)
	return nil
}

func (l *lowerer) lowerDoWhile(st *DoWhileStmt) error {
	body := l.f.NewBlock("do.body")
	latch := l.f.NewBlock("do.cond")
	exit := l.f.NewBlock("do.end")
	l.b.Br(body)
	l.b.SetBlock(body)
	l.breakTo = append(l.breakTo, exit)
	l.contTo = append(l.contTo, latch)
	err := l.lowerBlock(st.Body)
	l.breakTo = l.breakTo[:len(l.breakTo)-1]
	l.contTo = l.contTo[:len(l.contTo)-1]
	if err != nil {
		return err
	}
	l.b.SetLoc(ir.Loc{Line: int32(st.Line)})
	if l.b.Block().Term() == nil {
		l.b.Br(latch)
	}
	l.b.SetBlock(latch)
	cond, ct, err := l.lowerExpr(st.Cond)
	if err != nil {
		return err
	}
	cb, err := l.convert(cond, ct, scalar("bool"))
	if err != nil {
		return &Error{st.Line, 0, err.Error()}
	}
	l.b.CondBr(cb, body, exit)
	l.b.SetBlock(exit)
	return nil
}

func (l *lowerer) lowerFor(st *ForStmt) error {
	l.pushScope()
	defer l.popScope()
	if st.Init != nil {
		if err := l.lowerStmt(st.Init); err != nil {
			return err
		}
	}
	header := l.f.NewBlock("for.cond")
	exit := l.f.NewBlock("for.end")
	latch := l.f.NewBlock("for.inc")
	l.b.Br(header)
	l.b.SetBlock(header)
	var cb ir.Value = ir.True
	if st.Cond != nil {
		cond, ct, err := l.lowerExpr(st.Cond)
		if err != nil {
			return err
		}
		cb, err = l.convert(cond, ct, scalar("bool"))
		if err != nil {
			return &Error{st.Line, 0, err.Error()}
		}
	}
	body := l.f.NewBlock("for.body")
	l.b.CondBr(cb, body, exit)
	l.b.SetBlock(body)
	l.breakTo = append(l.breakTo, exit)
	l.contTo = append(l.contTo, latch)
	err := l.lowerBlock(st.Body)
	l.breakTo = l.breakTo[:len(l.breakTo)-1]
	l.contTo = l.contTo[:len(l.contTo)-1]
	if err != nil {
		return err
	}
	l.b.SetLoc(ir.Loc{Line: int32(st.Line)})
	if l.b.Block().Term() == nil {
		l.b.Br(latch)
	}
	l.b.SetBlock(latch)
	if st.Post != nil {
		if err := l.lowerStmt(st.Post); err != nil {
			return err
		}
	}
	l.b.Br(header)
	l.b.SetBlock(exit)
	return nil
}

// ---------- expressions ----------

func (l *lowerer) lowerExpr(e Expr) (ir.Value, TypeName, error) {
	switch ex := e.(type) {
	case *IntLit:
		if ex.Long || ex.Value > (1<<31)-1 || ex.Value < -(1<<31) {
			return ir.ConstInt(ir.I64, ex.Value), scalar("long"), nil
		}
		return ir.ConstInt(ir.I32, ex.Value), scalar("int"), nil
	case *FloatLit:
		if ex.Single {
			return ir.ConstFloat(ir.F32, ex.Value), scalar("float"), nil
		}
		return ir.ConstFloat(ir.F64, ex.Value), scalar("double"), nil
	case *IdentExpr:
		lo := l.lookup(ex.Name)
		if lo == nil {
			return nil, TypeName{}, &Error{ex.Line, 0, "undefined variable " + ex.Name}
		}
		if lo.ptrVal != nil {
			return lo.ptrVal, lo.typ, nil
		}
		return l.b.Load(lo.slot), lo.typ, nil
	case *UnaryExpr:
		return l.lowerUnary(ex)
	case *BinaryExpr:
		if ex.Op == "&&" || ex.Op == "||" {
			return l.lowerShortCircuit(ex)
		}
		a, at, err := l.lowerExpr(ex.L)
		if err != nil {
			return nil, TypeName{}, err
		}
		b, bt, err := l.lowerExpr(ex.R)
		if err != nil {
			return nil, TypeName{}, err
		}
		return l.binOp(ex.Op, a, at, b, bt, ex.Line)
	case *TernaryExpr:
		return l.lowerTernary(ex)
	case *IndexExpr:
		addr, elemT, err := l.lowerAddr(ex)
		if err != nil {
			return nil, TypeName{}, err
		}
		return l.b.Load(addr), elemT, nil
	case *CallExpr:
		return l.lowerCall(ex)
	case *CastExpr:
		v, vt, err := l.lowerExpr(ex.X)
		if err != nil {
			return nil, TypeName{}, err
		}
		cv, err := l.convert(v, vt, ex.Type)
		if err != nil {
			return nil, TypeName{}, err
		}
		return cv, ex.Type, nil
	}
	return nil, TypeName{}, fmt.Errorf("lang: unknown expression %T", e)
}

func (l *lowerer) lowerAddr(ex *IndexExpr) (ir.Value, TypeName, error) {
	base, bt, err := l.lowerExpr(ex.Base)
	if err != nil {
		return nil, TypeName{}, err
	}
	if !bt.Ptr {
		return nil, TypeName{}, &Error{ex.Line, 0, "indexed expression is not a pointer"}
	}
	idx, it, err := l.lowerExpr(ex.Idx)
	if err != nil {
		return nil, TypeName{}, err
	}
	if !isIntT(it) {
		return nil, TypeName{}, &Error{ex.Line, 0, "array index must be an integer"}
	}
	if it.Base == "bool" {
		idx, _ = l.convert(idx, it, scalar("int"))
	}
	return l.b.GEP(base, idx), scalar(bt.Base), nil
}

func (l *lowerer) lowerUnary(ex *UnaryExpr) (ir.Value, TypeName, error) {
	v, vt, err := l.lowerExpr(ex.X)
	if err != nil {
		return nil, TypeName{}, err
	}
	switch ex.Op {
	case "-":
		if vt.Base == "bool" {
			v, vt = mustConv(l, v, vt, scalar("int"))
		}
		if isFloatT(vt) {
			t, _ := irType(vt)
			return l.b.FSub(ir.ConstFloat(t, 0), v), vt, nil
		}
		t, _ := irType(vt)
		return l.b.Sub(ir.ConstInt(t, 0), v), vt, nil
	case "!":
		bv, err := l.convert(v, vt, scalar("bool"))
		if err != nil {
			return nil, TypeName{}, err
		}
		return l.b.Xor(bv, ir.True), scalar("bool"), nil
	case "~":
		if !isIntT(vt) || vt.Base == "bool" {
			return nil, TypeName{}, fmt.Errorf("lang: ~ requires an integer operand")
		}
		t, _ := irType(vt)
		return l.b.Xor(v, ir.ConstInt(t, -1)), vt, nil
	}
	return nil, TypeName{}, fmt.Errorf("lang: unknown unary op %q", ex.Op)
}

func mustConv(l *lowerer, v ir.Value, from, to TypeName) (ir.Value, TypeName) {
	cv, err := l.convert(v, from, to)
	if err != nil {
		panic(err)
	}
	return cv, to
}

var cmpPreds = map[string][2]ir.Pred{
	// integer pred, float pred
	"==": {ir.EQ, ir.OEQ},
	"!=": {ir.NE, ir.ONE},
	"<":  {ir.SLT, ir.OLT},
	"<=": {ir.SLE, ir.OLE},
	">":  {ir.SGT, ir.OGT},
	">=": {ir.SGE, ir.OGE},
}

func (l *lowerer) binOp(op string, a ir.Value, at TypeName, b ir.Value, bt TypeName, line int) (ir.Value, TypeName, error) {
	if at.Ptr || bt.Ptr {
		return nil, TypeName{}, &Error{line, 0, "pointer arithmetic outside indexing is not supported"}
	}
	if preds, ok := cmpPreds[op]; ok {
		ca, cb, common, err := l.usualConv(a, at, b, bt)
		if err != nil {
			return nil, TypeName{}, &Error{line, 0, err.Error()}
		}
		if isFloatT(common) {
			return l.b.FCmp(preds[1], ca, cb), scalar("bool"), nil
		}
		return l.b.ICmp(preds[0], ca, cb), scalar("bool"), nil
	}
	ca, cb, common, err := l.usualConv(a, at, b, bt)
	if err != nil {
		return nil, TypeName{}, &Error{line, 0, err.Error()}
	}
	fl := isFloatT(common)
	var opcode ir.Op
	switch op {
	case "+":
		opcode = ir.OpAdd
		if fl {
			opcode = ir.OpFAdd
		}
	case "-":
		opcode = ir.OpSub
		if fl {
			opcode = ir.OpFSub
		}
	case "*":
		opcode = ir.OpMul
		if fl {
			opcode = ir.OpFMul
		}
	case "/":
		opcode = ir.OpSDiv
		if fl {
			opcode = ir.OpFDiv
		}
	case "%":
		if fl {
			return nil, TypeName{}, &Error{line, 0, "%% requires integer operands"}
		}
		opcode = ir.OpSRem
	case "<<", ">>", "&", "|", "^":
		if fl {
			return nil, TypeName{}, &Error{line, 0, "bitwise ops require integer operands"}
		}
		switch op {
		case "<<":
			opcode = ir.OpShl
		case ">>":
			opcode = ir.OpAShr
		case "&":
			opcode = ir.OpAnd
		case "|":
			opcode = ir.OpOr
		case "^":
			opcode = ir.OpXor
		}
	default:
		return nil, TypeName{}, &Error{line, 0, fmt.Sprintf("unknown operator %q", op)}
	}
	return l.b.Bin(opcode, ca, cb), common, nil
}

// lowerShortCircuit lowers && and || with real control flow through a
// temporary, exactly like Clang's scalar expression emitter; mem2reg turns
// the temporary into phis.
func (l *lowerer) lowerShortCircuit(ex *BinaryExpr) (ir.Value, TypeName, error) {
	tmp := l.newAlloca(ir.I1, "sc.tmp")
	a, at, err := l.lowerExpr(ex.L)
	if err != nil {
		return nil, TypeName{}, err
	}
	ab, err := l.convert(a, at, scalar("bool"))
	if err != nil {
		return nil, TypeName{}, &Error{ex.Line, 0, err.Error()}
	}
	l.b.Store(ab, tmp)
	evalR := l.f.NewBlock("sc.rhs")
	merge := l.f.NewBlock("sc.end")
	if ex.Op == "&&" {
		l.b.CondBr(ab, evalR, merge)
	} else {
		l.b.CondBr(ab, merge, evalR)
	}
	l.b.SetBlock(evalR)
	b, bt, err := l.lowerExpr(ex.R)
	if err != nil {
		return nil, TypeName{}, err
	}
	bb, err := l.convert(b, bt, scalar("bool"))
	if err != nil {
		return nil, TypeName{}, &Error{ex.Line, 0, err.Error()}
	}
	l.b.Store(bb, tmp)
	l.b.Br(merge)
	l.b.SetBlock(merge)
	return l.b.Load(tmp), scalar("bool"), nil
}

// lowerTernary lowers c ? a : b with control flow through a temporary.
func (l *lowerer) lowerTernary(ex *TernaryExpr) (ir.Value, TypeName, error) {
	cond, ct, err := l.lowerExpr(ex.Cond)
	if err != nil {
		return nil, TypeName{}, err
	}
	cb, err := l.convert(cond, ct, scalar("bool"))
	if err != nil {
		return nil, TypeName{}, err
	}
	thenB := l.f.NewBlock("sel.then")
	elseB := l.f.NewBlock("sel.else")
	merge := l.f.NewBlock("sel.end")
	l.b.CondBr(cb, thenB, elseB)

	// Evaluate both arms into a temporary of the common type. The common
	// type needs both arm types, so evaluate the then-arm first, then the
	// else-arm, then convert: we stash raw values and convert in each arm.
	l.b.SetBlock(thenB)
	av, at, err := l.lowerExpr(ex.Then)
	if err != nil {
		return nil, TypeName{}, err
	}
	thenEnd := l.b.Block()

	l.b.SetBlock(elseB)
	bv, bt, err := l.lowerExpr(ex.Else)
	if err != nil {
		return nil, TypeName{}, err
	}
	elseEnd := l.b.Block()

	common := at
	if rank(bt) > rank(at) {
		common = bt
	}
	tt, _ := irType(common)
	tmp := l.newAlloca(tt, "sel.tmp")

	l.b.SetBlock(thenEnd)
	cav, err := l.convert(av, at, common)
	if err != nil {
		return nil, TypeName{}, err
	}
	l.b.Store(cav, tmp)
	l.b.Br(merge)

	l.b.SetBlock(elseEnd)
	cbv, err := l.convert(bv, bt, common)
	if err != nil {
		return nil, TypeName{}, err
	}
	l.b.Store(cbv, tmp)
	l.b.Br(merge)

	l.b.SetBlock(merge)
	return l.b.Load(tmp), common, nil
}

func (l *lowerer) lowerCall(ex *CallExpr) (ir.Value, TypeName, error) {
	argc := func(n int) error {
		if len(ex.Args) != n {
			return &Error{ex.Line, 0, fmt.Sprintf("%s expects %d arguments, got %d", ex.Name, n, len(ex.Args))}
		}
		return nil
	}
	switch ex.Name {
	case "tid", "ntid", "ctaid", "nctaid":
		if err := argc(0); err != nil {
			return nil, TypeName{}, err
		}
		var v *ir.Instr
		switch ex.Name {
		case "tid":
			v = l.b.TID()
		case "ntid":
			v = l.b.NTID()
		case "ctaid":
			v = l.b.CTAID()
		case "nctaid":
			v = l.b.NCTAID()
		}
		return v, scalar("int"), nil
	case "global_id":
		if err := argc(0); err != nil {
			return nil, TypeName{}, err
		}
		prod := l.b.Mul(l.b.CTAID(), l.b.NTID())
		return l.b.Add(prod, l.b.TID()), scalar("int"), nil
	case "syncthreads":
		if err := argc(0); err != nil {
			return nil, TypeName{}, err
		}
		l.b.Barrier()
		return ir.ConstInt(ir.I32, 0), scalar("int"), nil
	case "sqrt", "fabs", "exp", "log", "sin", "cos", "floor":
		if err := argc(1); err != nil {
			return nil, TypeName{}, err
		}
		v, vt, err := l.lowerExpr(ex.Args[0])
		if err != nil {
			return nil, TypeName{}, err
		}
		if !isFloatT(vt) {
			v, vt = mustConv(l, v, vt, scalar("double"))
		}
		ops := map[string]ir.Op{
			"sqrt": ir.OpSqrt, "fabs": ir.OpFAbs, "exp": ir.OpExp,
			"log": ir.OpLog, "sin": ir.OpSin, "cos": ir.OpCos, "floor": ir.OpFloor,
		}
		return l.b.MathUnary(ops[ex.Name], v), vt, nil
	case "pow":
		if err := argc(2); err != nil {
			return nil, TypeName{}, err
		}
		a, at, err := l.lowerExpr(ex.Args[0])
		if err != nil {
			return nil, TypeName{}, err
		}
		b, bt, err := l.lowerExpr(ex.Args[1])
		if err != nil {
			return nil, TypeName{}, err
		}
		if !isFloatT(at) {
			a, at = mustConv(l, a, at, scalar("double"))
		}
		if !isFloatT(bt) {
			b, bt = mustConv(l, b, bt, scalar("double"))
		}
		ca, cb, common, err := l.usualConv(a, at, b, bt)
		if err != nil {
			return nil, TypeName{}, err
		}
		return l.b.MathBinary(ir.OpPow, ca, cb), common, nil
	case "min", "max", "fmin", "fmax":
		if err := argc(2); err != nil {
			return nil, TypeName{}, err
		}
		a, at, err := l.lowerExpr(ex.Args[0])
		if err != nil {
			return nil, TypeName{}, err
		}
		b, bt, err := l.lowerExpr(ex.Args[1])
		if err != nil {
			return nil, TypeName{}, err
		}
		ca, cb, common, err := l.usualConv(a, at, b, bt)
		if err != nil {
			return nil, TypeName{}, err
		}
		isMin := ex.Name == "min" || ex.Name == "fmin"
		var op ir.Op
		if isFloatT(common) {
			op = ir.OpFMax
			if isMin {
				op = ir.OpFMin
			}
		} else {
			op = ir.OpSMax
			if isMin {
				op = ir.OpSMin
			}
		}
		return l.b.MathBinary(op, ca, cb), common, nil
	case "abs":
		if err := argc(1); err != nil {
			return nil, TypeName{}, err
		}
		v, vt, err := l.lowerExpr(ex.Args[0])
		if err != nil {
			return nil, TypeName{}, err
		}
		if isFloatT(vt) {
			return l.b.MathUnary(ir.OpFAbs, v), vt, nil
		}
		t, _ := irType(vt)
		neg := l.b.Sub(ir.ConstInt(t, 0), v)
		return l.b.MathBinary(ir.OpSMax, v, neg), vt, nil
	}
	return nil, TypeName{}, &Error{ex.Line, 0, "unknown builtin " + ex.Name}
}

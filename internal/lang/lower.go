package lang

import (
	"fmt"
	"strings"

	"uu/internal/ir"
	"uu/internal/transform"
)

// CompileKernel parses a MiniCU source that defines exactly one kernel and
// lowers it to IR. Local variables (and scalar parameters, which are
// assignable in C) go through allocas that transform.Mem2Reg later promotes —
// the same shape Clang hands to LLVM. Every error it returns for a bad
// source is a *Error, including a source without exactly one kernel
// (reported at line 1).
func CompileKernel(src string) (*ir.Function, error) {
	k, err := parse(src)
	if err != nil {
		return nil, err
	}
	return lowerKernel(k)
}

// lowerKernel lowers one parsed kernel to an IR function.
func lowerKernel(k *Kernel) (*ir.Function, error) {
	f := ir.NewFunction(k.Name, ir.Void)
	lw := &lowerer{f: f}
	entry := f.NewBlock("entry")
	lw.b = ir.NewBuilder(entry)
	lw.entry = entry
	lw.pushScope()

	for _, prm := range k.Params {
		t := irType(prm.Type)
		p := f.AddParam(prm.Name, t, prm.Restrict)
		if prm.Type.Ptr {
			lw.define(prm.Name, &local{prm.Type, p})
			continue
		}
		// Scalar parameters are assignable in C; shadow them in an alloca.
		slot := lw.b.Alloca(t, prm.Name+".addr")
		lw.b.Store(p, slot)
		lw.define(prm.Name, &local{prm.Type, slot})
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

// local is a named variable: a scalar's alloca, or a pointer parameter,
// which is used directly and cannot be assigned.
type local struct {
	typ TypeName
	v   ir.Value
}

// operand is a lowered expression and its MiniCU type.
type operand struct {
	v ir.Value
	t TypeName
}

type lowerer struct {
	f     *ir.Function
	b     *ir.Builder
	entry *ir.Block

	scopes []map[string]*local
	loops  [][2]*ir.Block // per enclosing loop, innermost last: the break and continue targets
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

// errorf reports a type error at the line of the statement being lowered.
func (l *lowerer) errorf(format string, args ...any) error {
	return &Error{Line: int(l.b.CurLoc().Line), Msg: fmt.Sprintf(format, args...)}
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

var (
	boolT   = TypeName{Base: "bool"}
	intT    = TypeName{Base: "int"}
	longT   = TypeName{Base: "long"}
	floatT  = TypeName{Base: "float"}
	doubleT = TypeName{Base: "double"}
)

// rank orders the scalar types for the usual arithmetic conversions; it
// also indexes irScalar. The parser admits no other base type.
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
	}
	return 4 // double
}

var irScalar = [...]*ir.Type{ir.I1, ir.I32, ir.I64, ir.F32, ir.F64}

func irType(t TypeName) *ir.Type {
	if t.Ptr {
		return ir.PointerTo(irScalar[rank(t)])
	}
	return irScalar[rank(t)]
}

// isIntT and isFloatT classify scalars; a pointer is neither.
func isFloatT(t TypeName) bool { return !t.Ptr && rank(t) >= 3 }
func isIntT(t TypeName) bool   { return !t.Ptr && rank(t) < 3 }

// convert coerces x to type `to`. It is the one place an operand changes
// type, so it is where a pointer used as a number is rejected.
func (l *lowerer) convert(x operand, to TypeName) (ir.Value, error) {
	v, from := x.v, x.t
	if from == to {
		return v, nil
	}
	ft, tt := irType(from), irType(to)
	switch {
	case isIntT(from) && isIntT(to):
		if to == boolT {
			return l.b.ICmp(ir.NE, v, ir.ConstInt(ft, 0)), nil
		}
		if ft.Bits() < tt.Bits() {
			if from == boolT {
				return l.b.Conv(ir.OpZExt, v, tt), nil
			}
			return l.b.Conv(ir.OpSExt, v, tt), nil
		}
		return l.b.Conv(ir.OpTrunc, v, tt), nil
	case isIntT(from) && isFloatT(to):
		if from == boolT {
			v = l.b.Conv(ir.OpZExt, v, ir.I32)
		}
		return l.b.Conv(ir.OpSIToFP, v, tt), nil
	case isFloatT(from) && isIntT(to):
		if to == boolT {
			return l.b.FCmp(ir.ONE, v, ir.ConstFloat(ft, 0)), nil
		}
		return l.b.Conv(ir.OpFPToSI, v, tt), nil
	case isFloatT(from) && isFloatT(to):
		if ft.Bits() < tt.Bits() {
			return l.b.Conv(ir.OpFPExt, v, tt), nil
		}
		return l.b.Conv(ir.OpFPTrunc, v, tt), nil
	}
	return nil, l.errorf("cannot convert %s to %s", from, to)
}

// lowerAs lowers e and converts it to type `to`.
func (l *lowerer) lowerAs(e Expr, to TypeName) (ir.Value, error) {
	x, err := l.lowerExpr(e)
	if err != nil {
		return nil, err
	}
	return l.convert(x, to)
}

// lowerScalar lowers an arithmetic operand, which must not be a pointer.
func (l *lowerer) lowerScalar(e Expr) (operand, error) {
	x, err := l.lowerExpr(e)
	if err == nil && x.t.Ptr {
		err = l.errorf("pointer arithmetic outside indexing is not supported")
	}
	return x, err
}

// store converts x to t and stores it to addr.
func (l *lowerer) store(x operand, t TypeName, addr ir.Value) error {
	v, err := l.convert(x, t)
	if err != nil {
		return err
	}
	l.b.Store(v, addr)
	return nil
}

// promote applies C's integer promotion to a bool operand: it becomes an int.
func (l *lowerer) promote(x operand) operand {
	if x.t == boolT {
		return operand{l.b.Conv(ir.OpZExt, x.v, ir.I32), intT}
	}
	return x
}

// byClass picks the integer (0) or float (1) form of an operation on type t.
func byClass[T any](forms [2]T, t TypeName) T {
	if isFloatT(t) {
		return forms[1]
	}
	return forms[0]
}

// usualConv applies the usual arithmetic conversions to a pair of scalar
// operands and returns the common type.
func (l *lowerer) usualConv(a, b operand) (ir.Value, ir.Value, TypeName, error) {
	common := a.t
	if rank(b.t) > rank(a.t) {
		common = b.t
	}
	if common == boolT {
		common = intT
	}
	ca, err := l.convert(a, common)
	if err != nil {
		return nil, nil, common, err
	}
	cb, err := l.convert(b, common)
	return ca, cb, common, err
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

// fallTo branches to b unless the current block already ended.
func (l *lowerer) fallTo(b *ir.Block) {
	if l.b.Block().Term() == nil {
		l.b.Br(b)
	}
}

func (l *lowerer) lowerStmt(s Stmt) error {
	if line := s.line(); line > 0 {
		l.b.SetLoc(ir.Loc{Line: int32(line)})
	}
	switch st := s.(type) {
	case *BlockStmt:
		return l.lowerBlock(st)
	case *DeclStmt:
		return l.lowerDecl(st)
	case *AssignStmt:
		return l.lowerAssign(st.LHS, strings.TrimSuffix(st.Op, "="), st.RHS)
	case *IncDecStmt:
		return l.lowerAssign(st.LHS, st.Op[:1], &IntLit{Value: 1}) // x++ is x += 1
	case *IfStmt:
		return l.lowerIf(st)
	case *WhileStmt:
		return l.lowerLoop("while", "latch", st.Line, st.Cond, st.Body, nil)
	case *DoWhileStmt:
		return l.lowerDoWhile(st)
	case *ForStmt:
		l.pushScope()
		defer l.popScope()
		if st.Init != nil {
			if err := l.lowerStmt(st.Init); err != nil {
				return err
			}
		}
		return l.lowerLoop("for", "inc", st.Line, st.Cond, st.Body, st.Post)
	case *BreakStmt:
		return l.jump("break", 0)
	case *ContinueStmt:
		return l.jump("continue", 1)
	case *ReturnStmt:
		l.b.Ret(nil)
		return nil
	case *ExprStmt:
		_, err := l.lowerExpr(st.X)
		return err
	}
	return l.errorf("unknown statement %T", s)
}

// jump lowers break (target 0) or continue (target 1) of the innermost loop.
func (l *lowerer) jump(what string, target int) error {
	if len(l.loops) == 0 {
		return l.errorf("%s outside loop", what)
	}
	l.b.Br(l.loops[len(l.loops)-1][target])
	return nil
}

func (l *lowerer) lowerDecl(st *DeclStmt) error {
	if st.Type.Ptr {
		return l.errorf("pointer-typed locals are not supported")
	}
	if l.scopes[len(l.scopes)-1][st.Name] != nil {
		return l.errorf("redeclaration of %s", st.Name)
	}
	slot := l.newAlloca(irType(st.Type), st.Name)
	l.define(st.Name, &local{st.Type, slot})
	if st.Init == nil {
		return nil
	}
	x, err := l.lowerExpr(st.Init)
	if err != nil {
		return err
	}
	return l.store(x, st.Type, slot)
}

// lvalue returns the address an assignment to e stores to and its type.
func (l *lowerer) lvalue(e Expr) (ir.Value, TypeName, error) {
	switch lhs := e.(type) {
	case *IdentExpr:
		lo := l.lookup(lhs.Name)
		if lo == nil {
			return nil, TypeName{}, l.errorf("undefined variable %s", lhs.Name)
		}
		if lo.typ.Ptr {
			return nil, TypeName{}, l.errorf("cannot assign to pointer parameter %s", lhs.Name)
		}
		return lo.v, lo.typ, nil
	case *IndexExpr:
		return l.lowerAddr(lhs)
	}
	return nil, TypeName{}, l.errorf("invalid assignment target")
}

// lowerAssign lowers `lhs = rhs`, or with a binary op the compound `lhs op=
// rhs`, which loads the current value before lowering rhs.
func (l *lowerer) lowerAssign(lhs Expr, op string, rhs Expr) error {
	addr, t, err := l.lvalue(lhs)
	if err != nil {
		return err
	}
	var x operand
	if op != "" {
		cur := operand{l.b.Load(addr), t}
		if x, err = l.lowerScalar(rhs); err == nil {
			x, err = l.binOp(op, cur, x)
		}
	} else {
		x, err = l.lowerExpr(rhs)
	}
	if err != nil {
		return err
	}
	return l.store(x, t, addr)
}

func (l *lowerer) lowerIf(st *IfStmt) error {
	cb, err := l.lowerAs(st.Cond, boolT)
	if err != nil {
		return err
	}
	thenB := l.f.NewBlock("if.then")
	merge := l.f.NewBlock("if.end")
	elseB := merge
	if st.Else != nil {
		elseB = l.f.NewBlock("if.else")
	}
	l.b.CondBr(cb, thenB, elseB)
	l.b.SetBlock(thenB)
	if err := l.lowerStmt(st.Then); err != nil {
		return err
	}
	l.fallTo(merge)
	if st.Else != nil {
		l.b.SetBlock(elseB)
		if err := l.lowerStmt(st.Else); err != nil {
			return err
		}
		l.fallTo(merge)
	}
	l.b.SetBlock(merge)
	return nil
}

// lowerLoop lowers a test-first loop (while, or for after its init): the
// header tests cond (nil means true), the body falls through to the latch,
// and the latch runs post (may be nil) and jumps back to the header.
func (l *lowerer) lowerLoop(kind, latchName string, line int, cond Expr, body *BlockStmt, post Stmt) error {
	header := l.f.NewBlock(kind + ".cond")
	exit := l.f.NewBlock(kind + ".end")
	latch := l.f.NewBlock(kind + "." + latchName)
	l.b.Br(header)
	l.b.SetBlock(header)
	var cb ir.Value = ir.True
	if cond != nil {
		var err error
		if cb, err = l.lowerAs(cond, boolT); err != nil {
			return err
		}
	}
	bodyB := l.f.NewBlock(kind + ".body")
	l.b.CondBr(cb, bodyB, exit)
	l.b.SetBlock(bodyB)
	if err := l.lowerLoopBody(body, exit, latch, line); err != nil {
		return err
	}
	if post != nil {
		if err := l.lowerStmt(post); err != nil {
			return err
		}
	}
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
	if err := l.lowerLoopBody(st.Body, exit, latch, st.Line); err != nil {
		return err
	}
	cb, err := l.lowerAs(st.Cond, boolT)
	if err != nil {
		return err
	}
	l.b.CondBr(cb, body, exit)
	l.b.SetBlock(exit)
	return nil
}

// lowerLoopBody lowers a loop body with break going to exit and continue to
// latch, falls through to the latch, and leaves the builder there. The
// loop-control branches attribute to the loop statement's own line.
func (l *lowerer) lowerLoopBody(body *BlockStmt, exit, latch *ir.Block, line int) error {
	l.loops = append(l.loops, [2]*ir.Block{exit, latch})
	if err := l.lowerBlock(body); err != nil {
		return err
	}
	l.loops = l.loops[:len(l.loops)-1]
	l.b.SetLoc(ir.Loc{Line: int32(line)})
	l.fallTo(latch)
	l.b.SetBlock(latch)
	return nil
}

// ---------- expressions ----------

func (l *lowerer) lowerExpr(e Expr) (operand, error) {
	switch ex := e.(type) {
	case *IntLit:
		if ex.Long || ex.Value > (1<<31)-1 || ex.Value < -(1<<31) {
			return operand{ir.ConstInt(ir.I64, ex.Value), longT}, nil
		}
		return operand{ir.ConstInt(ir.I32, ex.Value), intT}, nil
	case *FloatLit:
		if ex.Single {
			return operand{ir.ConstFloat(ir.F32, ex.Value), floatT}, nil
		}
		return operand{ir.ConstFloat(ir.F64, ex.Value), doubleT}, nil
	case *IdentExpr:
		lo := l.lookup(ex.Name)
		if lo == nil {
			return operand{}, l.errorf("undefined variable %s", ex.Name)
		}
		if lo.typ.Ptr {
			return operand{lo.v, lo.typ}, nil
		}
		return operand{l.b.Load(lo.v), lo.typ}, nil
	case *UnaryExpr:
		return l.lowerUnary(ex)
	case *BinaryExpr:
		if ex.Op == "&&" || ex.Op == "||" {
			return l.lowerShortCircuit(ex)
		}
		a, err := l.lowerScalar(ex.L)
		if err != nil {
			return operand{}, err
		}
		b, err := l.lowerScalar(ex.R)
		if err != nil {
			return operand{}, err
		}
		return l.binOp(ex.Op, a, b)
	case *TernaryExpr:
		return l.lowerTernary(ex)
	case *IndexExpr:
		addr, elemT, err := l.lowerAddr(ex)
		if err != nil {
			return operand{}, err
		}
		return operand{l.b.Load(addr), elemT}, nil
	case *CallExpr:
		return l.lowerCall(ex)
	case *CastExpr:
		v, err := l.lowerAs(ex.X, ex.Type)
		return operand{v, ex.Type}, err
	}
	return operand{}, l.errorf("unknown expression %T", e)
}

func (l *lowerer) lowerAddr(ex *IndexExpr) (ir.Value, TypeName, error) {
	base, err := l.lowerExpr(ex.Base)
	if err != nil {
		return nil, TypeName{}, err
	}
	if !base.t.Ptr {
		return nil, TypeName{}, l.errorf("indexed expression is not a pointer")
	}
	idx, err := l.lowerExpr(ex.Idx)
	if err != nil {
		return nil, TypeName{}, err
	}
	if !isIntT(idx.t) {
		return nil, TypeName{}, l.errorf("array index must be an integer")
	}
	return l.b.GEP(base.v, l.promote(idx).v), TypeName{Base: base.t.Base}, nil
}

func (l *lowerer) lowerUnary(ex *UnaryExpr) (operand, error) {
	if ex.Op == "!" {
		bv, err := l.lowerAs(ex.X, boolT)
		if err != nil {
			return operand{}, err
		}
		return operand{l.b.Xor(bv, ir.True), boolT}, nil
	}
	x, err := l.lowerScalar(ex.X)
	if err != nil {
		return operand{}, err
	}
	switch ex.Op {
	case "-":
		x = l.promote(x)
		if isFloatT(x.t) {
			return operand{l.b.FSub(ir.ConstFloat(irType(x.t), 0), x.v), x.t}, nil
		}
		return operand{l.b.Sub(ir.ConstInt(irType(x.t), 0), x.v), x.t}, nil
	case "~":
		if !isIntT(x.t) || x.t == boolT {
			return operand{}, l.errorf("~ requires an integer operand")
		}
		return operand{l.b.Xor(x.v, ir.ConstInt(irType(x.t), -1)), x.t}, nil
	}
	return operand{}, l.errorf("unknown unary op %q", ex.Op)
}

// arithOps gives each arithmetic operator's integer and float opcode; an
// operator with no float opcode needs integer operands.
var arithOps = map[string][2]ir.Op{
	"+": {ir.OpAdd, ir.OpFAdd}, "-": {ir.OpSub, ir.OpFSub},
	"*": {ir.OpMul, ir.OpFMul}, "/": {ir.OpSDiv, ir.OpFDiv},
	"%": {ir.OpSRem}, "<<": {ir.OpShl}, ">>": {ir.OpAShr},
	"&": {ir.OpAnd}, "|": {ir.OpOr}, "^": {ir.OpXor},
}

// cmpPreds gives each comparison's integer and float predicate.
var cmpPreds = map[string][2]ir.Pred{
	"==": {ir.EQ, ir.OEQ},
	"!=": {ir.NE, ir.ONE},
	"<":  {ir.SLT, ir.OLT},
	"<=": {ir.SLE, ir.OLE},
	">":  {ir.SGT, ir.OGT},
	">=": {ir.SGE, ir.OGE},
}

// binOp lowers a non-short-circuit binary operator on two scalars.
func (l *lowerer) binOp(op string, a, b operand) (operand, error) {
	ca, cb, common, err := l.usualConv(a, b)
	if err != nil {
		return operand{}, err
	}
	if preds, ok := cmpPreds[op]; ok {
		if isFloatT(common) {
			return operand{l.b.FCmp(preds[1], ca, cb), boolT}, nil
		}
		return operand{l.b.ICmp(preds[0], ca, cb), boolT}, nil
	}
	opc := byClass(arithOps[op], common)
	if opc == ir.OpInvalid {
		return operand{}, l.errorf("%s requires integer operands", op)
	}
	return operand{l.b.Bin(opc, ca, cb), common}, nil
}

// lowerShortCircuit lowers && and || with real control flow through a
// temporary, exactly like Clang's scalar expression emitter; mem2reg turns
// the temporary into phis.
func (l *lowerer) lowerShortCircuit(ex *BinaryExpr) (operand, error) {
	tmp := l.newAlloca(ir.I1, "sc.tmp")
	ab, err := l.lowerAs(ex.L, boolT)
	if err != nil {
		return operand{}, err
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
	bb, err := l.lowerAs(ex.R, boolT)
	if err != nil {
		return operand{}, err
	}
	l.b.Store(bb, tmp)
	l.b.Br(merge)
	l.b.SetBlock(merge)
	return operand{l.b.Load(tmp), boolT}, nil
}

// lowerTernary lowers c ? a : b with control flow through a temporary of the
// arms' common type. The common type needs both arm types, so each arm is
// lowered first and converted at the end of its block afterwards.
func (l *lowerer) lowerTernary(ex *TernaryExpr) (operand, error) {
	cb, err := l.lowerAs(ex.Cond, boolT)
	if err != nil {
		return operand{}, err
	}
	thenB := l.f.NewBlock("sel.then")
	elseB := l.f.NewBlock("sel.else")
	merge := l.f.NewBlock("sel.end")
	l.b.CondBr(cb, thenB, elseB)

	var arms [2]operand
	var ends [2]*ir.Block
	for i, arm := range [2]struct {
		start *ir.Block
		e     Expr
	}{{thenB, ex.Then}, {elseB, ex.Else}} {
		l.b.SetBlock(arm.start)
		if arms[i], err = l.lowerExpr(arm.e); err != nil {
			return operand{}, err
		}
		ends[i] = l.b.Block()
	}

	common := arms[0].t
	if rank(arms[1].t) > rank(common) {
		common = arms[1].t
	}
	tmp := l.newAlloca(irType(common), "sel.tmp")
	for i, end := range ends {
		l.b.SetBlock(end)
		if err := l.store(arms[i], common, tmp); err != nil {
			return operand{}, err
		}
		l.b.Br(merge)
	}
	l.b.SetBlock(merge)
	return operand{l.b.Load(tmp), common}, nil
}

// builtins gives each builtin's arity and, for the math builtins, its
// integer and float opcode. One with no integer opcode takes float operands:
// an integer argument is converted to double.
var builtins = map[string]struct {
	arity int
	ops   [2]ir.Op
}{
	"tid": {}, "ntid": {}, "ctaid": {}, "nctaid": {}, "global_id": {}, "syncthreads": {},
	"sqrt": {1, [2]ir.Op{0, ir.OpSqrt}}, "fabs": {1, [2]ir.Op{0, ir.OpFAbs}},
	"exp": {1, [2]ir.Op{0, ir.OpExp}}, "log": {1, [2]ir.Op{0, ir.OpLog}},
	"sin": {1, [2]ir.Op{0, ir.OpSin}}, "cos": {1, [2]ir.Op{0, ir.OpCos}},
	"floor": {1, [2]ir.Op{0, ir.OpFloor}}, "abs": {1, [2]ir.Op{ir.OpSMax, ir.OpFAbs}},
	"pow": {2, [2]ir.Op{0, ir.OpPow}},
	"min": {2, [2]ir.Op{ir.OpSMin, ir.OpFMin}}, "fmin": {2, [2]ir.Op{ir.OpSMin, ir.OpFMin}},
	"max": {2, [2]ir.Op{ir.OpSMax, ir.OpFMax}}, "fmax": {2, [2]ir.Op{ir.OpSMax, ir.OpFMax}},
}

func (l *lowerer) lowerCall(ex *CallExpr) (operand, error) {
	bi, ok := builtins[ex.Name]
	if !ok {
		return operand{}, l.errorf("unknown builtin %s", ex.Name)
	}
	if len(ex.Args) != bi.arity {
		return operand{}, l.errorf("%s expects %d arguments, got %d", ex.Name, bi.arity, len(ex.Args))
	}
	switch ex.Name {
	case "tid":
		return operand{l.b.TID(), intT}, nil
	case "ntid":
		return operand{l.b.NTID(), intT}, nil
	case "ctaid":
		return operand{l.b.CTAID(), intT}, nil
	case "nctaid":
		return operand{l.b.NCTAID(), intT}, nil
	case "global_id":
		prod := l.b.Mul(l.b.CTAID(), l.b.NTID())
		return operand{l.b.Add(prod, l.b.TID()), intT}, nil
	case "syncthreads":
		l.b.Barrier()
		return operand{ir.ConstInt(ir.I32, 0), intT}, nil
	}
	// Every argument is lowered before any is converted.
	var args [2]operand
	for i, a := range ex.Args {
		x, err := l.lowerScalar(a)
		if err != nil {
			return operand{}, err
		}
		args[i] = x
	}
	if bi.ops[0] == ir.OpInvalid {
		for i := range ex.Args {
			if !isFloatT(args[i].t) {
				v, err := l.convert(args[i], doubleT)
				if err != nil {
					return operand{}, err
				}
				args[i] = operand{v, doubleT}
			}
		}
	}
	if bi.arity == 1 {
		x := args[0]
		if isFloatT(x.t) {
			return operand{l.b.MathUnary(bi.ops[1], x.v), x.t}, nil
		}
		neg := l.b.Sub(ir.ConstInt(irType(x.t), 0), x.v) // abs
		return operand{l.b.MathBinary(bi.ops[0], x.v, neg), x.t}, nil
	}
	ca, cb, common, err := l.usualConv(args[0], args[1])
	if err != nil {
		return operand{}, err
	}
	return operand{l.b.MathBinary(byClass(bi.ops, common), ca, cb), common}, nil
}

package interp

import (
	"fmt"
	"slices"

	"uu/internal/ir"
)

// opcode is what a decoded instruction executes as: a handful of memory,
// control and geometry forms, one generic class per family of pure ops,
// whose ir.Op picks the value kernel, and the hot (op, type) pairs of those
// families with a case of their own.
type opcode uint8

const (
	cBr      opcode = iota // b: the edge taken
	cCondBr                // a: the condition; b, c: the edges taken on true, false
	cRet                   // a: the returned value
	cRetVoid               // ret without a value
	cReenter               // end of a block without a terminator: enter it again over the same edge
	cAlloca                // dst: the alloca, which is also its slot
	cLoad                  // dst <- memory at a, kind and size
	cStore                 // memory at b <- a, kind and size
	cGEP                   // dst <- a + b*size
	cNop                   // barrier: a step and nothing else
	cTID                   // dst <- the thread's geometry, here and below
	cNTID
	cCTAID
	cNCTAID
	cSelect   // dst <- a ? b : c
	cIntBin   // ir.EvalBinary at t over a and b truncated to t
	cIntDiv   // cIntBin, with a zero divisor defined as a zero result
	cFloatBin // ir.EvalBinary at at over a and b rounded to at and bt, then to t
	cCompare  // ir.EvalCompare of a (type at) and b (type bt)
	cConv     // ir.EvalUnary from at to t
	cMath     // ir.EvalUnary at t

	// The specialised cases: a generic case above at one kind or type,
	// chosen here once and evaluated inline. Each does exactly what its
	// generic case does at that type, truncating integer operands to the
	// type's width (and f32 ones rounding) before and after.
	// TestPureOpsMatchReference reaches every one of them.
	cLoadSlot     // cLoad where a is an alloca of an integer or pointer: its slot once it has executed
	cLoadSlotF32  // ... of an f32
	cLoadSlotF64  // ... of an f64
	cStoreSlot    // cStore where b is an alloca, of an integer or pointer
	cStoreSlotF32 // ... of an f32
	cStoreSlotF64 // ... of an f64
	cAddI32       // cIntBin add, sub and mul at i32, then at i64
	cSubI32
	cMulI32
	cAddI64
	cSubI64
	cMulI64
	cFAddF32 // cFloatBin fadd, fsub and fmul where t, at and bt are all f32, then all f64
	cFSubF32
	cFMulF32
	cFAddF64
	cFSubF64
	cFMulF64
	cEqI32 // cCompare icmp eq, ne, slt, sle, sgt and sge (in ir.Pred order) of two i32s, then two i64s
	cNeI32
	cLtI32
	cLeI32
	cGtI32
	cGeI32
	cEqI64
	cNeI64
	cLtI64
	cLeI64
	cGtI64
	cGeI64
	cOEqF32 // cCompare fcmp oeq, one, olt, ole, ogt and oge (in ir.Pred order) of two f32s, then two f64s
	cONeF32
	cOLtF32
	cOLeF32
	cOGtF32
	cOGeF32
	cOEqF64
	cONeF64
	cOLtF64
	cOLeF64
	cOGtF64
	cOGeF64
	cSExtI32 // cConv sext from i32 to i64
	numOpcodes
)

// op is one decoded non-phi instruction. Every operand is a frame slot
// (see frame.vals), so executing it reads nothing of the IR: the types it
// needs are resolved, and what it needs of ir.Op and ir.Pred is stored.
type op struct {
	t, at, bt *ir.Type // result type; first and second operand types
	size      int64    // bytes a load or store moves, or a GEP's element size
	dst       int32    // result slot: the instruction's ID
	a, b, c   int32    // operand slots, or edge indices for a branch
	code      opcode
	// The ir.Op, ir.Kind (of what a load or store moves) and ir.Pred,
	// narrowed to a byte each to keep the record at 56 bytes.
	irop, kind, pred uint8
}

// edge is one CFG edge as a branch takes it: the phi moves of the block it
// enters, and where that block's code starts. err is set when a phi of the
// target has no incoming value for the edge's source; it is raised only if
// the edge is taken, as the walk over the IR raised it on entering the block.
type edge struct {
	to     int32 // index into code of the target's first non-phi op
	lo, hi int32 // its phi moves, moves[lo:hi]
	err    error
}

// move is one phi assignment of an edge: vals[dst] = vals[src], all of an
// edge's moves simultaneously.
type move struct{ dst, src int32 }

// countConsts returns how many constant operand occurrences f has: each
// gets its own slot in the frame, behind the parameters.
func countConsts(f *ir.Function) int {
	n := 0
	for _, b := range f.Blocks() {
		for _, in := range b.Instrs() {
			for i := range in.NumArgs() {
				if _, ok := in.Arg(i).(*ir.Const); ok {
					n++
				}
			}
		}
	}
	return n
}

// decode translates f into fr's program: code, edges and moves, with every
// constant operand given a slot behind the parameters that holds its value
// for the whole launch. fr.vals must already be sized for f (newFrame).
// Decoding reads every block of f once; running reads only the program.
func (fr *frame) decode(f *ir.Function) {
	fr.nextConst = fr.params + len(f.Params)

	// Where each block's code starts.
	fr.blockAt = make([]int32, f.BlockIDBound())
	pc := int32(0)
	for _, b := range f.Blocks() {
		fr.blockAt[b.ID()] = pc
		body, terminated := blockBody(b)
		pc += int32(len(body))
		if !terminated {
			pc++
		}
	}

	fr.code = make([]op, 0, pc)
	fr.addEdge(nil, f.Entry())
	for _, b := range f.Blocks() {
		body, terminated := blockBody(b)
		for _, in := range body {
			fr.code = append(fr.code, fr.decodeInstr(b, in))
		}
		if !terminated {
			fr.code = append(fr.code, op{code: cReenter})
		}
	}
}

// blockBody returns what a thread executes of b each time it enters it:
// the non-phi instructions up to the first terminator, and whether there
// is one. Without one, the walk over the IR entered the block again.
func blockBody(b *ir.Block) (body []*ir.Instr, terminated bool) {
	body = b.Instrs()[len(b.Phis()):]
	for i, in := range body {
		if in.IsTerminator() {
			return body[:i+1], true
		}
	}
	return body, false
}

// addEdge appends the edge from `from` (nil: the run's start) into `to` and
// returns its index.
func (fr *frame) addEdge(from, to *ir.Block) int32 {
	e := edge{to: fr.blockAt[to.ID()], lo: int32(len(fr.moves))}
	for _, phi := range to.Phis() {
		if from == nil {
			e.err = fmt.Errorf("interp: phi in entry block %s", to.Name)
			break
		}
		inc := phi.PhiIncoming(from)
		if inc == nil {
			e.err = fmt.Errorf("interp: phi %s has no incoming for %s", phi.Ref(), from.Name)
			break
		}
		fr.moves = append(fr.moves, move{dst: int32(phi.ID()), src: fr.slot(inc)})
	}
	e.hi = int32(len(fr.moves))
	fr.edges = append(fr.edges, e)
	return int32(len(fr.edges) - 1)
}

// slot resolves an operand to the frame slot that holds it: an
// instruction's result at its ID, a parameter behind the results, and a
// constant in a fresh slot behind the parameters, filled here.
func (fr *frame) slot(v ir.Value) int32 {
	switch x := v.(type) {
	case *ir.Instr:
		return int32(x.ID())
	case *ir.Param:
		return int32(fr.params + x.Index)
	}
	c := v.(*ir.Const)
	s := fr.nextConst
	fr.nextConst++
	fr.vals[s] = IntVal(c.Int)
	if c.Typ.IsFloat() {
		fr.vals[s] = FloatVal(c.Float)
	}
	return int32(s)
}

// isAlloca reports whether v is, syntactically, an alloca: a load or store
// through it goes to its slot once it has executed.
func isAlloca(v ir.Value) bool {
	in, ok := v.(*ir.Instr)
	return ok && in.Op == ir.OpAlloca
}

// decodeInstr decodes one non-phi instruction of block b.
func (fr *frame) decodeInstr(b *ir.Block, in *ir.Instr) op {
	o := op{t: in.Type(), dst: int32(in.ID()), irop: uint8(in.Op), pred: uint8(in.Pred)}
	arg := func(i int) int32 { return fr.slot(in.Arg(i)) }
	switch in.Op {
	case ir.OpBr:
		o.code, o.b = cBr, fr.addEdge(b, in.BlockArg(0))
	case ir.OpCondBr:
		o.code, o.a = cCondBr, arg(0)
		o.b = fr.addEdge(b, in.BlockArg(0))
		o.c = fr.addEdge(b, in.BlockArg(1))
	case ir.OpRet:
		o.code = cRetVoid
		if in.NumArgs() == 1 {
			o.code, o.a = cRet, arg(0)
		}
	case ir.OpAlloca:
		o.code = cAlloca
	case ir.OpLoad:
		o.code, o.a, o.kind, o.size = cLoad, arg(0), uint8(o.t.Kind), o.t.Size()
		if isAlloca(in.Arg(0)) {
			o.code = slotCode(cLoadSlot, o.t)
		}
	case ir.OpStore:
		o.at = in.Arg(0).Type()
		o.code, o.a, o.b, o.kind, o.size = cStore, arg(0), arg(1), uint8(o.at.Kind), o.at.Size()
		if isAlloca(in.Arg(1)) {
			o.code = slotCode(cStoreSlot, o.at)
		}
	case ir.OpGEP:
		o.code, o.a, o.b, o.size = cGEP, arg(0), arg(1), o.t.Elem.Size()
	case ir.OpBarrier:
		o.code = cNop
	case ir.OpTID:
		o.code = cTID
	case ir.OpNTID:
		o.code = cNTID
	case ir.OpCTAID:
		o.code = cCTAID
	case ir.OpNCTAID:
		o.code = cNCTAID
	case ir.OpSelect:
		o.code, o.a, o.b, o.c = cSelect, arg(0), arg(1), arg(2)
	case ir.OpICmp, ir.OpFCmp:
		o.code, o.a, o.b, o.at, o.bt = cCompare, arg(0), arg(1), in.Arg(0).Type(), in.Arg(1).Type()
		if o.at == o.bt {
			o.code = compareCode(in.Op, in.Pred, o.at)
		}
	case ir.OpTrunc, ir.OpZExt, ir.OpSExt, ir.OpSIToFP, ir.OpFPToSI, ir.OpFPExt, ir.OpFPTrunc:
		o.code, o.a, o.at = cConv, arg(0), in.Arg(0).Type()
		if in.Op == ir.OpSExt && o.at == ir.I32 && o.t == ir.I64 {
			o.code = cSExtI32
		}
	case ir.OpSqrt, ir.OpFAbs, ir.OpExp, ir.OpLog, ir.OpSin, ir.OpCos, ir.OpFloor:
		o.code, o.a = cMath, arg(0)
	default:
		// Binary arithmetic, and whatever else reaches here, as the walk
		// over the IR evaluated it: float when the result is a float or
		// the op is a float intrinsic, integer otherwise.
		o.a, o.b = arg(0), arg(1)
		switch {
		case o.t.IsFloat() || in.Op == ir.OpPow || in.Op == ir.OpFMin || in.Op == ir.OpFMax:
			o.code, o.at, o.bt = cFloatBin, in.Arg(0).Type(), in.Arg(1).Type()
			if o.at == o.t && o.bt == o.t {
				o.code = arithCode(cFloatBin, cFAddF32, in.Op, [3]ir.Op{ir.OpFAdd, ir.OpFSub, ir.OpFMul}, o.t, ir.F32, ir.F64)
			}
		case in.Op == ir.OpSDiv || in.Op == ir.OpUDiv || in.Op == ir.OpSRem || in.Op == ir.OpURem:
			o.code = cIntDiv
		default:
			o.code = arithCode(cIntBin, cAddI32, in.Op, [3]ir.Op{ir.OpAdd, ir.OpSub, ir.OpMul}, o.t, ir.I32, ir.I64)
		}
	}
	return o
}

// slotCode returns the slot case of a load or store (first: the integer
// one) that moves a value of type t.
func slotCode(first opcode, t *ir.Type) opcode {
	switch t.Kind {
	case ir.KindF32:
		return first + 1
	case ir.KindF64:
		return first + 2
	}
	return first
}

// arithCode returns the case of op at type t, where ops are the three ops
// with cases of their own and first is that of ops[0] at narrow; or generic.
func arithCode(generic, first opcode, op ir.Op, ops [3]ir.Op, t, narrow, wide *ir.Type) opcode {
	i := opcode(slices.Index(ops[:], op))
	switch {
	case i > 2: // not found
		return generic
	case t == narrow:
		return first + i
	case t == wide:
		return first + 3 + i
	}
	return generic
}

// compareCode returns the case of an icmp or fcmp under pred of two
// operands of type t, or cCompare.
func compareCode(op ir.Op, pred ir.Pred, t *ir.Type) opcode {
	first, lo := cEqI32, ir.EQ
	if op == ir.OpFCmp {
		first, lo = cOEqF32, ir.OEQ
	}
	i := opcode(pred - lo)
	switch {
	case pred < lo || pred > lo+5:
		return cCompare
	case t == ir.I32 && op == ir.OpICmp, t == ir.F32 && op == ir.OpFCmp:
		return first + i
	case t == ir.I64 && op == ir.OpICmp, t == ir.F64 && op == ir.OpFCmp:
		return first + 6 + i
	}
	return cCompare
}

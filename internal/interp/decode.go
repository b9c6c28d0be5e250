package interp

import (
	"fmt"
	"slices"

	"uu/internal/ir"
)

// opcode is what a decoded instruction executes as: a handful of memory,
// control and geometry forms, and one class per family of pure ops, whose
// ir.Op picks the value kernel.
type opcode uint8

const (
	cBr        opcode = iota // b: the edge taken
	cCondBr                  // a: the condition; b, c: the edges taken on true, false
	cRet                     // a: the returned value
	cRetVoid                 // ret without a value
	cReenter                 // end of a block without a terminator: enter it again over the same edge
	cAlloca                  // dst: the alloca, which is also its slot
	cLoad                    // dst <- memory at a, kind and size
	cLoadSlot                // as cLoad, but a is an alloca: its slot once it has executed
	cStore                   // memory at b <- a, kind and size
	cStoreSlot               // as cStore, but b is an alloca
	cGEP                     // dst <- a + b*size
	cNop                     // barrier: a step and nothing else
	cTID                     // dst <- the thread's geometry, here and below
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
// for the whole launch. fr.vals must already be sized for f (takeFrame).
// Decoding reads every block of f once; running reads only the program.
func (fr *frame) decode(f *ir.Function) {
	fr.code, fr.edges, fr.moves = fr.code[:0], fr.edges[:0], fr.moves[:0]
	fr.nextConst = fr.params + len(f.Params)

	// Where each block's code starts.
	fr.blockAt = slices.Grow(fr.blockAt[:0], f.BlockIDBound())[:f.BlockIDBound()]
	pc := int32(0)
	for _, b := range f.Blocks() {
		fr.blockAt[b.ID()] = pc
		body, terminated := blockBody(b)
		pc += int32(len(body))
		if !terminated {
			pc++
		}
	}

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
			o.code = cLoadSlot
		}
	case ir.OpStore:
		o.at = in.Arg(0).Type()
		o.code, o.a, o.b, o.kind, o.size = cStore, arg(0), arg(1), uint8(o.at.Kind), o.at.Size()
		if isAlloca(in.Arg(1)) {
			o.code = cStoreSlot
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
	case ir.OpTrunc, ir.OpZExt, ir.OpSExt, ir.OpSIToFP, ir.OpFPToSI, ir.OpFPExt, ir.OpFPTrunc:
		o.code, o.a, o.at = cConv, arg(0), in.Arg(0).Type()
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
		case in.Op == ir.OpSDiv || in.Op == ir.OpUDiv || in.Op == ir.OpSRem || in.Op == ir.OpURem:
			o.code = cIntDiv
		default:
			o.code = cIntBin
		}
	}
	return o
}

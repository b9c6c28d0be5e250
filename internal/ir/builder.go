package ir

import "fmt"

// Builder constructs instructions appended to a current insertion block, with
// result types inferred from operands. It is the primary construction API for
// tests, examples, and the language frontend.
type Builder struct {
	blk *Block
	loc Loc // stamped onto every instruction the builder creates
}

// NewBuilder returns a builder positioned at b (may be nil; call SetBlock).
func NewBuilder(b *Block) *Builder { return &Builder{blk: b} }

// SetBlock moves the insertion point to the end of b.
func (bld *Builder) SetBlock(b *Block) { bld.blk = b }

// Block returns the current insertion block.
func (bld *Builder) Block() *Block { return bld.blk }

// SetLoc sets the source provenance stamped onto subsequently built
// instructions. The frontend calls this once per statement.
func (bld *Builder) SetLoc(l Loc) { bld.loc = l }

// CurLoc returns the provenance currently being stamped.
func (bld *Builder) CurLoc() Loc { return bld.loc }

func (bld *Builder) insert(in *Instr) *Instr {
	in.loc = bld.loc
	bld.blk.Append(in)
	return in
}

func sameType(op Op, a, b Value) *Type {
	if a.Type() != b.Type() {
		panic(fmt.Sprintf("ir.Builder: %s operand type mismatch: %s vs %s",
			op, a.Type(), b.Type()))
	}
	return a.Type()
}

// Bin builds a binary arithmetic instruction of the given opcode.
func (bld *Builder) Bin(op Op, a, b Value) *Instr {
	return bld.insert(NewInstr(op, sameType(op, a, b), a, b))
}

// Add builds an integer add.
func (bld *Builder) Add(a, b Value) *Instr { return bld.Bin(OpAdd, a, b) }

// Sub builds an integer subtract.
func (bld *Builder) Sub(a, b Value) *Instr { return bld.Bin(OpSub, a, b) }

// Mul builds an integer multiply.
func (bld *Builder) Mul(a, b Value) *Instr { return bld.Bin(OpMul, a, b) }

// And builds a bitwise and.
func (bld *Builder) And(a, b Value) *Instr { return bld.Bin(OpAnd, a, b) }

// Or builds a bitwise or.
func (bld *Builder) Or(a, b Value) *Instr { return bld.Bin(OpOr, a, b) }

// Xor builds a bitwise xor.
func (bld *Builder) Xor(a, b Value) *Instr { return bld.Bin(OpXor, a, b) }

// FAdd builds a floating-point add.
func (bld *Builder) FAdd(a, b Value) *Instr { return bld.Bin(OpFAdd, a, b) }

// FSub builds a floating-point subtract.
func (bld *Builder) FSub(a, b Value) *Instr { return bld.Bin(OpFSub, a, b) }

// ICmp builds an integer comparison with predicate p.
func (bld *Builder) ICmp(p Pred, a, b Value) *Instr {
	sameType(OpICmp, a, b)
	in := NewInstr(OpICmp, I1, a, b)
	in.Pred = p
	return bld.insert(in)
}

// FCmp builds a floating-point comparison with predicate p.
func (bld *Builder) FCmp(p Pred, a, b Value) *Instr {
	sameType(OpFCmp, a, b)
	in := NewInstr(OpFCmp, I1, a, b)
	in.Pred = p
	return bld.insert(in)
}

// Select builds a select (cond ? t : f).
func (bld *Builder) Select(cond, t, f Value) *Instr {
	return bld.insert(NewInstr(OpSelect, sameType(OpSelect, t, f), cond, t, f))
}

// Conv builds a conversion instruction to type to.
func (bld *Builder) Conv(op Op, v Value, to *Type) *Instr {
	return bld.insert(NewInstr(op, to, v))
}

// Alloca builds a thread-private scalar slot of element type elem.
func (bld *Builder) Alloca(elem *Type, name string) *Instr {
	in := NewInstr(OpAlloca, PointerTo(elem))
	in.SetName(name)
	return bld.insert(in)
}

// GEP builds pointer arithmetic: ptr + idx*sizeof(elem).
func (bld *Builder) GEP(ptr, idx Value) *Instr {
	if !ptr.Type().IsPtr() {
		panic("ir.Builder: GEP base is not a pointer")
	}
	return bld.insert(NewInstr(OpGEP, ptr.Type(), ptr, idx))
}

// Load builds a load from ptr.
func (bld *Builder) Load(ptr Value) *Instr {
	if !ptr.Type().IsPtr() {
		panic("ir.Builder: Load from non-pointer")
	}
	return bld.insert(NewInstr(OpLoad, ptr.Type().Elem, ptr))
}

// Store builds a store of v to ptr.
func (bld *Builder) Store(v, ptr Value) *Instr {
	if !ptr.Type().IsPtr() || ptr.Type().Elem != v.Type() {
		panic("ir.Builder: Store type mismatch")
	}
	return bld.insert(NewInstr(OpStore, Void, v, ptr))
}

// Phi builds an empty phi of type t at the front of the current block.
// Incoming pairs are added with PhiAddIncoming.
func (bld *Builder) Phi(t *Type, name string) *Instr {
	in := NewInstr(OpPhi, t)
	in.SetName(name)
	in.loc = bld.loc
	bld.blk.InsertAtFront(in)
	return in
}

// Br builds an unconditional branch to target.
func (bld *Builder) Br(target *Block) *Instr {
	in := NewInstr(OpBr, Void)
	in.AddBlockArg(target)
	return bld.insert(in)
}

// CondBr builds a conditional branch on cond.
func (bld *Builder) CondBr(cond Value, ifTrue, ifFalse *Block) *Instr {
	in := NewInstr(OpCondBr, Void, cond)
	in.AddBlockArg(ifTrue)
	in.AddBlockArg(ifFalse)
	return bld.insert(in)
}

// Ret builds a return; v may be nil for void functions.
func (bld *Builder) Ret(v Value) *Instr {
	var in *Instr
	if v == nil {
		in = NewInstr(OpRet, Void)
	} else {
		in = NewInstr(OpRet, Void, v)
	}
	return bld.insert(in)
}

// TID builds threadIdx.x (i32).
func (bld *Builder) TID() *Instr { return bld.insert(NewInstr(OpTID, I32)) }

// NTID builds blockDim.x (i32).
func (bld *Builder) NTID() *Instr { return bld.insert(NewInstr(OpNTID, I32)) }

// CTAID builds blockIdx.x (i32).
func (bld *Builder) CTAID() *Instr { return bld.insert(NewInstr(OpCTAID, I32)) }

// NCTAID builds gridDim.x (i32).
func (bld *Builder) NCTAID() *Instr { return bld.insert(NewInstr(OpNCTAID, I32)) }

// MathUnary builds a unary math intrinsic (sqrt, fabs, exp, log, sin, cos,
// floor) on a float operand.
func (bld *Builder) MathUnary(op Op, v Value) *Instr {
	return bld.insert(NewInstr(op, v.Type(), v))
}

// MathBinary builds a binary math intrinsic (pow, fmin, fmax, smin, smax).
func (bld *Builder) MathBinary(op Op, a, b Value) *Instr {
	return bld.insert(NewInstr(op, sameType(op, a, b), a, b))
}

// Barrier builds a __syncthreads() barrier.
func (bld *Builder) Barrier() *Instr { return bld.insert(NewInstr(OpBarrier, Void)) }

package ir

import "fmt"

// Op identifies an instruction opcode.
type Op int

// Instruction opcodes. The set mirrors the subset of LLVM IR (plus NVPTX-style
// GPU intrinsics as first-class ops) needed by the paper's benchmarks.
const (
	OpInvalid Op = iota

	// Integer arithmetic (both operands and result share one integer type).
	OpAdd
	OpSub
	OpMul
	OpSDiv
	OpUDiv
	OpSRem
	OpURem
	OpShl
	OpLShr
	OpAShr
	OpAnd
	OpOr
	OpXor

	// Floating-point arithmetic.
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv

	// Comparisons: result type i1; Pred selects the relation.
	OpICmp
	OpFCmp

	// OpSelect: args = [cond i1, trueVal, falseVal].
	OpSelect

	// Conversions (single operand).
	OpTrunc
	OpZExt
	OpSExt
	OpSIToFP
	OpFPToSI
	OpFPExt
	OpFPTrunc

	// Memory. OpAlloca allocates one thread-private scalar slot (only used by
	// the frontend before mem2reg). OpGEP: args = [ptr, index]; result is
	// ptr + index*sizeof(elem). OpLoad: args = [ptr]. OpStore: args =
	// [value, ptr], no result.
	OpAlloca
	OpGEP
	OpLoad
	OpStore

	// OpPhi: args = incoming values, blocks() = parallel incoming blocks.
	OpPhi

	// GPU intrinsics (1-D launch geometry).
	OpTID    // threadIdx.x
	OpNTID   // blockDim.x
	OpCTAID  // blockIdx.x
	OpNCTAID // gridDim.x

	// Math intrinsics. Unary: Sqrt, FAbs, Exp, Log, Sin, Cos, Floor.
	// Binary: Pow, FMin, FMax, SMin, SMax.
	OpSqrt
	OpFAbs
	OpExp
	OpLog
	OpSin
	OpCos
	OpFloor
	OpPow
	OpFMin
	OpFMax
	OpSMin
	OpSMax

	// OpBarrier is __syncthreads(): a convergent operation that must not be
	// made control-flow dependent (the unmerge pass refuses loops with one).
	OpBarrier

	// Terminators. OpBr: blocks()=[target]. OpCondBr: args=[cond],
	// blocks()=[ifTrue, ifFalse]. OpRet: args=[value] or empty for void.
	OpBr
	OpCondBr
	OpRet
)

var opNames = map[Op]string{
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpSDiv: "sdiv", OpUDiv: "udiv",
	OpSRem: "srem", OpURem: "urem", OpShl: "shl", OpLShr: "lshr", OpAShr: "ashr",
	OpAnd: "and", OpOr: "or", OpXor: "xor",
	OpFAdd: "fadd", OpFSub: "fsub", OpFMul: "fmul", OpFDiv: "fdiv",
	OpICmp: "icmp", OpFCmp: "fcmp", OpSelect: "select",
	OpTrunc: "trunc", OpZExt: "zext", OpSExt: "sext", OpSIToFP: "sitofp",
	OpFPToSI: "fptosi", OpFPExt: "fpext", OpFPTrunc: "fptrunc",
	OpAlloca: "alloca", OpGEP: "gep", OpLoad: "load", OpStore: "store",
	OpPhi: "phi",
	OpTID: "tid", OpNTID: "ntid", OpCTAID: "ctaid", OpNCTAID: "nctaid",
	OpSqrt: "sqrt", OpFAbs: "fabs", OpExp: "exp", OpLog: "log",
	OpSin: "sin", OpCos: "cos", OpFloor: "floor", OpPow: "pow",
	OpFMin: "fmin", OpFMax: "fmax", OpSMin: "smin", OpSMax: "smax",
	OpBarrier: "barrier",
	OpBr:      "br", OpCondBr: "condbr", OpRet: "ret",
}

// String returns the mnemonic of the opcode.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// OpByName returns the opcode with the given mnemonic, or OpInvalid.
func OpByName(s string) Op {
	for op, name := range opNames {
		if name == s {
			return op
		}
	}
	return OpInvalid
}

// Pred is a comparison predicate for OpICmp / OpFCmp.
type Pred int

// Comparison predicates. Integer predicates are signed (S*) or unsigned (U*);
// float predicates are the ordered LLVM predicates.
const (
	PredInvalid Pred = iota
	EQ
	NE
	SLT
	SLE
	SGT
	SGE
	ULT
	ULE
	UGT
	UGE
	OEQ
	ONE
	OLT
	OLE
	OGT
	OGE
)

var predNames = map[Pred]string{
	EQ: "eq", NE: "ne", SLT: "slt", SLE: "sle", SGT: "sgt", SGE: "sge",
	ULT: "ult", ULE: "ule", UGT: "ugt", UGE: "uge",
	OEQ: "oeq", ONE: "one", OLT: "olt", OLE: "ole", OGT: "ogt", OGE: "oge",
}

// String returns the textual spelling of the predicate.
func (p Pred) String() string {
	if s, ok := predNames[p]; ok {
		return s
	}
	return fmt.Sprintf("pred(%d)", int(p))
}

// PredByName returns the predicate with the given spelling, or PredInvalid.
func PredByName(s string) Pred {
	for p, name := range predNames {
		if name == s {
			return p
		}
	}
	return PredInvalid
}

// Inverse returns the negated predicate: Inverse(SLT) == SGE, etc.
func (p Pred) Inverse() Pred {
	switch p {
	case EQ:
		return NE
	case NE:
		return EQ
	case SLT:
		return SGE
	case SLE:
		return SGT
	case SGT:
		return SLE
	case SGE:
		return SLT
	case ULT:
		return UGE
	case ULE:
		return UGT
	case UGT:
		return ULE
	case UGE:
		return ULT
	case OEQ:
		return ONE
	case ONE:
		return OEQ
	case OLT:
		return OGE
	case OLE:
		return OGT
	case OGT:
		return OLE
	case OGE:
		return OLT
	}
	return PredInvalid
}

// Swapped returns the predicate with operands exchanged: Swapped(SLT) == SGT.
func (p Pred) Swapped() Pred {
	switch p {
	case SLT:
		return SGT
	case SLE:
		return SGE
	case SGT:
		return SLT
	case SGE:
		return SLE
	case ULT:
		return UGT
	case ULE:
		return UGE
	case UGT:
		return ULT
	case UGE:
		return ULE
	case OLT:
		return OGT
	case OLE:
		return OGE
	case OGT:
		return OLT
	case OGE:
		return OLE
	default: // EQ, NE, OEQ, ONE are symmetric
		return p
	}
}

// Loc is the source provenance of an instruction: the MiniCU source line it
// originated from, plus clone tags distinguishing the copies the optimizer
// made of that line. The unroller stamps Iter with the iteration number of
// each body copy (mirroring the ".u<j>" block-name suffix) and the unmerger
// stamps Dup with the duplication count (the ".d<n>" suffix), so a profiler
// can attribute simulator cycles to "line 14, unroll copy 2, path dup 3"
// rather than just "line 14". The tags compose: unmerging an unrolled body
// keeps the iteration tag and adds the duplication tag, exactly like the
// ".u1.d3" block names. The zero Loc means "no provenance" (synthetic
// instructions with no single source line).
type Loc struct {
	Line int32 // 1-based source line; 0 = unknown
	Iter int32 // unroll iteration copy; 0 = original iteration
	Dup  int32 // unmerge path-duplication id; 0 = original path
}

// BlockLine returns the source line anchoring a block: the line of its
// terminator (for loop headers that is the loop condition, which the
// frontend stamps with the loop statement's line), falling back to the
// smallest nonzero line among the block's instructions, or 0 when the block
// carries no provenance at all.
func BlockLine(b *Block) int32 {
	return BlockLoc(b).Line
}

// BlockLoc is BlockLine with the full provenance: the anchoring location
// including unroll-iteration and path-duplication tags, so profilers can
// distinguish the `.u<j>`/`.d<n>` clones of a loop that all alias one source
// line. Falls back to the instruction with the smallest nonzero line (ties:
// the terminator's own tags never lose to a body instruction's).
func BlockLoc(b *Block) Loc {
	if t := b.Term(); t != nil && t.loc.Line != 0 {
		return t.loc
	}
	var min Loc
	for _, in := range b.Instrs() {
		if ln := in.loc.Line; ln != 0 && (min.Line == 0 || ln < min.Line) {
			min = in.loc
		}
	}
	return min
}

// String renders the location compactly: "L14", "L14.u2", "L14.u2.d3", or
// "?" when unknown. This spelling is what the line table, hotspot tables,
// and flamegraph frames use.
func (l Loc) String() string {
	if l.Line == 0 {
		return "?"
	}
	s := fmt.Sprintf("L%d", l.Line)
	if l.Iter != 0 {
		s += fmt.Sprintf(".u%d", l.Iter)
	}
	if l.Dup != 0 {
		s += fmt.Sprintf(".d%d", l.Dup)
	}
	return s
}

// Instr is a single IR instruction. Its result (if the type is non-void) is
// itself a Value usable as an operand of other instructions.
type Instr struct {
	Op   Op
	Typ  *Type
	Pred Pred // predicate for OpICmp / OpFCmp

	args   []Value
	blocks []*Block // phi incoming blocks, or branch targets

	uses  []use // operand slots of other instructions that reference this one
	block *Block
	id    int    // unique within the function; assigned on insertion
	name  string // optional stable name (loop-carried variables etc.)
	loc   Loc    // source provenance; zero when unknown
}

// NewInstr creates a detached instruction. Most callers should use the
// Builder or the block insertion helpers, which also assign IDs.
func NewInstr(op Op, t *Type, args ...Value) *Instr {
	in := &Instr{Op: op, Typ: t}
	for _, a := range args {
		in.AddArg(a)
	}
	return in
}

// Type implements Value.
func (in *Instr) Type() *Type { return in.Typ }

// Ref implements Value.
func (in *Instr) Ref() string {
	if in.name != "" {
		return "%" + in.name
	}
	return fmt.Sprintf("%%t%d", in.id)
}

// Name returns the optional stable name of the instruction ("" if unnamed).
func (in *Instr) Name() string { return in.name }

// SetName assigns a stable name used by Ref and the printer.
func (in *Instr) SetName(s string) { in.name = s }

// ID returns the function-unique instruction ID.
func (in *Instr) ID() int { return in.id }

// Loc returns the source provenance of the instruction.
func (in *Instr) Loc() Loc { return in.loc }

// SetLoc assigns the source provenance. Passes that synthesize a replacement
// for an existing instruction should copy that instruction's Loc so profiler
// attribution survives the rewrite.
func (in *Instr) SetLoc(l Loc) { in.loc = l }

// Block returns the block containing the instruction, or nil if detached.
func (in *Instr) Block() *Block { return in.block }

// NumArgs returns the number of value operands.
func (in *Instr) NumArgs() int { return len(in.args) }

// Arg returns the i-th value operand.
func (in *Instr) Arg(i int) Value { return in.args[i] }

// SetArg replaces the i-th operand, updating def-use chains.
func (in *Instr) SetArg(i int, v Value) {
	if old, ok := in.args[i].(*Instr); ok {
		old.removeUse(in, i)
	}
	in.args[i] = v
	if nv, ok := v.(*Instr); ok {
		nv.uses = append(nv.uses, use{in, i})
	}
}

// AddArg appends an operand, updating def-use chains.
func (in *Instr) AddArg(v Value) {
	in.args = append(in.args, v)
	if nv, ok := v.(*Instr); ok {
		nv.uses = append(nv.uses, use{in, len(in.args) - 1})
	}
}

// dropArgs disconnects all operands (used when erasing the instruction).
// The lists keep their arrays: an erased instruction stays its function's,
// and Release hands it back with them.
func (in *Instr) dropArgs() {
	for i, a := range in.args {
		if ai, ok := a.(*Instr); ok {
			ai.removeUse(in, i)
		}
	}
	in.args = in.args[:0]
	in.blocks = in.blocks[:0]
}

func (in *Instr) removeUse(user *Instr, idx int) {
	for i, u := range in.uses {
		if u.user == user && u.idx == idx {
			in.uses[i] = in.uses[len(in.uses)-1]
			in.uses = in.uses[:len(in.uses)-1]
			return
		}
	}
	panic("ir: removeUse: use not found")
}

// NumUses returns the number of operand slots referencing this instruction.
func (in *Instr) NumUses() int { return len(in.uses) }

// HasUses reports whether any instruction uses this one's result.
func (in *Instr) HasUses() bool { return len(in.uses) > 0 }

// User returns the instruction holding the i-th of NumUses operand slots
// that reference this one, in no particular order. An instruction that uses
// it twice is returned twice; Users deduplicates, at the price of a map.
func (in *Instr) User(i int) *Instr { return in.uses[i].user }

// Users returns the distinct instructions that use this instruction.
func (in *Instr) Users() []*Instr {
	seen := map[*Instr]bool{}
	var out []*Instr
	for _, u := range in.uses {
		if !seen[u.user] {
			seen[u.user] = true
			out = append(out, u.user)
		}
	}
	return out
}

// ReplaceAllUsesWith rewrites every use of in to refer to v instead.
func (in *Instr) ReplaceAllUsesWith(v Value) {
	if v == Value(in) {
		panic("ir: ReplaceAllUsesWith self")
	}
	for len(in.uses) > 0 {
		u := in.uses[len(in.uses)-1]
		u.user.SetArg(u.idx, v)
	}
}

// NumBlocks returns the number of block operands (phi incomings / branch
// targets).
func (in *Instr) NumBlocks() int { return len(in.blocks) }

// BlockArg returns the i-th block operand.
func (in *Instr) BlockArg(i int) *Block { return in.blocks[i] }

// SetBlockArg replaces the i-th block operand. For terminators, callers must
// keep predecessor lists consistent (see Block.ReplaceSucc).
func (in *Instr) SetBlockArg(i int, b *Block) { in.blocks[i] = b }

// AddBlockArg appends a block operand.
func (in *Instr) AddBlockArg(b *Block) { in.blocks = append(in.blocks, b) }

// IsTerminator reports whether the instruction ends a basic block.
func (in *Instr) IsTerminator() bool {
	return in.Op == OpBr || in.Op == OpCondBr || in.Op == OpRet
}

// IsPhi reports whether the instruction is a phi node.
func (in *Instr) IsPhi() bool { return in.Op == OpPhi }

// HasSideEffects reports whether the instruction writes memory or otherwise
// cannot be removed even when its result is unused.
func (in *Instr) HasSideEffects() bool {
	switch in.Op {
	case OpStore, OpBarrier, OpBr, OpCondBr, OpRet:
		return true
	}
	return false
}

// IsConvergent reports whether the instruction is convergent in the SIMT
// sense: it communicates across threads of a warp/block and must not be
// duplicated onto new control-flow paths.
func (in *Instr) IsConvergent() bool { return in.Op == OpBarrier }

// IsSpeculatable reports whether the instruction may safely execute even when
// its source-level path is not taken (used by if-conversion). Loads, stores,
// barriers and terminators are not speculatable; everything else (including
// division, which does not trap on GPUs) is.
func (in *Instr) IsSpeculatable() bool {
	switch in.Op {
	case OpLoad, OpStore, OpAlloca, OpBarrier, OpPhi, OpBr, OpCondBr, OpRet:
		return false
	}
	return true
}

// IsCommutative reports whether the two operands may be exchanged.
func (in *Instr) IsCommutative() bool {
	switch in.Op {
	case OpAdd, OpMul, OpAnd, OpOr, OpXor, OpFAdd, OpFMul, OpFMin, OpFMax,
		OpSMin, OpSMax:
		return true
	}
	return false
}

// PhiIncoming returns the value flowing into the phi from predecessor pred,
// or nil if pred is not an incoming block.
func (in *Instr) PhiIncoming(pred *Block) Value {
	for i, b := range in.blocks {
		if b == pred {
			return in.args[i]
		}
	}
	return nil
}

// PhiSetIncoming sets the value flowing in from pred, which must already be
// an incoming block of the phi.
func (in *Instr) PhiSetIncoming(pred *Block, v Value) {
	for i, b := range in.blocks {
		if b == pred {
			in.SetArg(i, v)
			return
		}
	}
	panic("ir: PhiSetIncoming: block is not a predecessor of the phi")
}

// PhiAddIncoming appends an incoming (value, block) pair to the phi.
func (in *Instr) PhiAddIncoming(v Value, pred *Block) {
	in.AddArg(v)
	in.AddBlockArg(pred)
}

// PhiRemoveIncoming removes the incoming pair for pred. It panics if pred is
// not incoming.
func (in *Instr) PhiRemoveIncoming(pred *Block) {
	for i, b := range in.blocks {
		if b == pred {
			// Shift remaining operands down, preserving use indices.
			last := len(in.args) - 1
			for j := i; j < last; j++ {
				in.SetArg(j, in.args[j+1])
				in.blocks[j] = in.blocks[j+1]
			}
			if li, ok := in.args[last].(*Instr); ok {
				li.removeUse(in, last)
			}
			in.args = in.args[:last]
			in.blocks = in.blocks[:last]
			return
		}
	}
	panic("ir: PhiRemoveIncoming: block is not a predecessor of the phi")
}

package codegen

import (
	"fmt"
	"math/bits"
	"slices"

	"uu/internal/analysis"
	"uu/internal/freelist"
	"uu/internal/ir"
	"uu/internal/transform"
)

// scratch is the storage one lowering works in and files for the next: the
// analysis storage its post-dominator tree and loop info are built in, and
// its own tables. Every table grows to what it serves, so any scratch can
// serve any function; a filed one pins no function (release).
type scratch struct {
	analysis.Scratch
	regs  []Reg   // by Instr.ID: the result's register, NoReg when unreached
	index []int32 // by Block.ID: the block's position in the layout
	// copies holds every block's sequenced phi copies, block after block in
	// layout order; copyEnd[i] is where block i's end. pending holds one
	// block's copies before they are sequenced.
	copies, pending []phiCopy
	copyEnd         []int32
	order           []*ir.Block // the layout: reverse postorder
	mark            []int32     // by Block.ID: rpo's visited set
	stack           ir.PostorderStack
	blocks, preds   []*ir.Block // splitCriticalEdges' work lists
}

// freeScratch recycles scratch between lowerings. Its price: with its Put
// discarded the benchmark's sweep allocates 8.2 % more and serve-cold 7.8 %
// more (EXPERIMENTS.md "What each free list buys").
var freeScratch = freelist.New[*scratch]()

// release drops every reference s holds to blocks and files it.
func (s *scratch) release() {
	s.Park()
	s.order, s.blocks, s.preds = freelist.Emptied(s.order), freelist.Emptied(s.blocks), freelist.Emptied(s.preds)
	freeScratch.Put(s)
}

// store is the storage a program is cut from, each array whole: the
// instructions, the operand pool, the line table and the blocks. Lower
// grows each one to the program it builds, and Release clears and files
// them for the next Lower, so a filed store pins no constant, type or name.
type store struct {
	instrs []Instr
	srcs   []Operand
	lines  []LineInfo
	blocks []Block
}

// freeStores recycles released programs' stores. Its price: with its Put
// discarded the benchmark's sweep allocates 16.9 % more and serve-cold
// 17.0 % more (EXPERIMENTS.md "What each free list buys").
var freeStores = freelist.New[*store]()

// Release files p's arrays for the next Lower to build its program in, and
// empties p. It is for p's owner, after the last read of p and of every
// window of it; a run's owner releases through gpusim.ReleaseProgram, which
// also files the simulator's decoded form.
func Release(p *Program) {
	st := p.store
	*p = Program{}
	if st == nil {
		return
	}
	st.instrs, st.srcs = freelist.Emptied(st.instrs), freelist.Emptied(st.srcs)
	st.lines, st.blocks = freelist.Emptied(st.lines), freelist.Emptied(st.blocks)
	freeStores.Put(st)
}

// Lower compiles an IR function to VPTX. It mutates f slightly (critical
// edges into phi-bearing blocks are split so phi copies have a home), then
// performs a standard phi-elimination lowering with parallel-copy
// sequencing. Allocas must have been promoted (run a pipeline first).
//
// The program is cut from a few arrays: every block's instructions, end to
// end in layout order, each block's Instrs a capped window of them; every
// instruction's operands, each Srcs a capped window of one pool; the line
// table, one record per instruction; and the blocks. Everything is counted
// before the first instruction is emitted, and the arrays are grown to that
// count in the store the last released program filed.
func Lower(f *ir.Function) (*Program, error) {
	for _, b := range f.Blocks() {
		for _, in := range b.Instrs() {
			if in.Op == ir.OpAlloca {
				return nil, fmt.Errorf("codegen: %s contains an alloca; run mem2reg first", f.Name)
			}
		}
	}
	s, ok := freeScratch.Take()
	if !ok {
		s = new(scratch)
	}
	defer s.release()
	s.splitCriticalEdges(f)

	// Reverse postorder block layout.
	s.mark = freelist.Zeroed(s.mark, f.BlockIDBound())
	s.order = ir.AppendPostorder(s.order[:0], f.Entry(), (*ir.Block).Succs, s.mark, &s.stack)
	slices.Reverse(s.order)
	order := s.order
	s.index = freelist.Zeroed(s.index, f.BlockIDBound())
	for i, b := range order {
		s.index[b.ID()] = int32(i)
	}

	s.regs = slices.Grow(s.regs[:0], f.InstrIDBound())[:f.InstrIDBound()]
	lw := &lowerer{f: f, prog: &Program{Name: f.Name}, regs: s.regs, index: s.index}
	// Parameters get the first registers.
	lw.prog.ParamRegs = make([]Reg, len(f.Params))
	lw.prog.ParamTyps = make([]*ir.Type, len(f.Params))
	for i, p := range f.Params {
		lw.prog.ParamRegs[i] = lw.newReg()
		lw.prog.ParamTyps[i] = p.Typ
	}
	// Pre-assign result registers (phis included) so forward references
	// work. An instruction the layout does not reach keeps NoReg.
	for i := range lw.regs {
		lw.regs[i] = NoReg
	}
	for _, b := range order {
		for _, in := range b.Instrs() {
			if in.Type() != ir.Void {
				lw.regs[in.ID()] = lw.newReg()
			}
		}
	}

	// Count what every block lowers to, its sequenced phi copies included.
	s.copies, s.copyEnd = s.copies[:0], slices.Grow(s.copyEnd[:0], len(order))[:len(order)]
	nInstrs, nSrcs := 0, 0
	for i, b := range order {
		s.pending = lw.phiCopies(s.pending[:0], b)
		s.copies = sequenceCopies(s.copies, s.pending)
		s.copyEnd[i] = int32(len(s.copies))
		for _, in := range b.Instrs() {
			n, m := lowered(in)
			nInstrs, nSrcs = nInstrs+n, nSrcs+m
			if in.IsTerminator() {
				break
			}
		}
	}
	nInstrs += len(s.copies)
	nSrcs += len(s.copies)
	st, ok := freeStores.Take()
	if !ok {
		st = new(store)
	}
	lw.prog.store = st
	st.instrs, st.srcs = slices.Grow(st.instrs, nInstrs), slices.Grow(st.srcs, nSrcs)
	st.lines, st.blocks = slices.Grow(st.lines, nInstrs), freelist.Zeroed(st.blocks, len(order))
	lw.st = st

	// Loop metadata for the profiler, and each block's innermost loop for
	// the line table. Like the post-dominator tree below, the loop info is
	// built in recycled storage that is parked once the program is built.
	li := s.LoopInfo(f)
	lw.prog.Loops = make([]LoopMeta, 0, len(li.Loops))
	for _, l := range li.Loops {
		parent := int32(-1)
		if l.Parent != nil {
			parent = int32(l.Parent.ID)
		}
		loc := ir.BlockLoc(l.Header)
		lw.prog.Loops = append(lw.prog.Loops, LoopMeta{
			ID: int32(l.ID), Parent: parent,
			Line: loc.Line, Iter: loc.Iter, Dup: loc.Dup,
			Depth:  int32(l.Depth()),
			Header: l.Header.Name,
		})
	}
	copyStart := int32(0)
	for i, b := range order {
		lw.block, lw.loop = int32(i), -1
		if l := li.LoopFor(b); l != nil {
			lw.loop = int32(l.ID)
		}
		start := len(st.instrs)
		if err := lw.lowerBlock(b, s.copies[copyStart:s.copyEnd[i]]); err != nil {
			Release(lw.prog)
			return nil, err
		}
		copyStart = s.copyEnd[i]
		end := len(st.instrs)
		st.blocks[i] = Block{Index: i, Name: b.Name, Instrs: st.instrs[start:end:end]}
	}
	lw.prog.Blocks, lw.prog.Lines = slices.Clip(st.blocks), slices.Clip(st.lines)
	lw.prog.NumRegs = int(lw.next)

	// Immediate post-dominators for the simulator's reconvergence stack.
	pdt := s.PostDomTree(f)
	lw.prog.IPDom = make([]int, len(order))
	for i, b := range order {
		ip := pdt.Idom(b)
		if ip == nil {
			lw.prog.IPDom[i] = -1
		} else {
			lw.prog.IPDom[i] = int(s.index[ip.ID()])
		}
	}
	return lw.prog, nil
}

// splitCriticalEdges splits edges from multi-successor blocks into
// phi-bearing multi-predecessor blocks, so phi copies can be placed on the
// edge.
func (s *scratch) splitCriticalEdges(f *ir.Function) {
	s.blocks = append(s.blocks[:0], f.Blocks()...)
	for _, b := range s.blocks {
		if len(b.Preds()) < 2 || len(b.Phis()) == 0 {
			continue
		}
		s.preds = append(s.preds[:0], b.Preds()...)
		for _, p := range s.preds {
			if len(p.Succs()) > 1 {
				transform.SplitCriticalEdge(f, p, b)
			}
		}
	}
}

type lowerer struct {
	f     *ir.Function
	prog  *Program
	regs  []Reg // by Instr.ID
	next  Reg
	index []int32 // by Block.ID: the block's position in the layout
	// st is the program's store: emit appends every block's instructions
	// and their line records in layout order, and srcs every instruction's
	// operands, each Srcs a window of the pool.
	st *store
	// curLoc is the line table's loc for every emitted instruction: the loc
	// of the IR instruction currently being lowered, so synthetic
	// expansions (GEP address math, phi-copy movs) inherit their
	// originator's provenance. block and loop are the block's layout
	// position and innermost loop ID.
	curLoc      ir.Loc
	block, loop int32
}

func (lw *lowerer) newReg() Reg {
	r := lw.next
	lw.next++
	return r
}

func (lw *lowerer) operand(v ir.Value) Operand {
	if c, ok := v.(*ir.Const); ok {
		return immOp(c)
	}
	r := NoReg
	switch x := v.(type) {
	case *ir.Param:
		if x.Func() == lw.f {
			r = lw.prog.ParamRegs[x.Index]
		}
	case *ir.Instr:
		if x.ID() < len(lw.regs) {
			r = lw.regs[x.ID()]
		}
	}
	if r == NoReg {
		panic("codegen: value without register: " + v.Ref())
	}
	return regOp(r)
}

// srcs files ops in the operand pool and returns their window.
func (lw *lowerer) srcs(ops ...Operand) []Operand {
	start := len(lw.st.srcs)
	lw.st.srcs = append(lw.st.srcs, ops...)
	return lw.srcWindow(start)
}

// srcWindow returns the pool's operands from start on, capped so that an
// append to them cannot write into the next instruction's.
func (lw *lowerer) srcWindow(start int) []Operand {
	end := len(lw.st.srcs)
	return lw.st.srcs[start:end:end]
}

// emit appends in to the program and its record to the line table.
func (lw *lowerer) emit(in Instr) {
	lw.st.instrs = append(lw.st.instrs, in)
	lw.st.lines = append(lw.st.lines, LineInfo{Loc: lw.curLoc, Block: lw.block, Loop: lw.loop})
}

// lowered returns how many instructions and operands in lowers to.
func lowered(in *ir.Instr) (instrs, srcs int) {
	switch in.Op {
	case ir.OpPhi:
		return 0, 0 // becomes copies in predecessors
	case ir.OpRet:
		return 1, 0
	case ir.OpGEP:
		instrs, srcs = 1, 2
		if in.Arg(1).Type() != ir.I64 {
			instrs, srcs = instrs+1, srcs+1
		}
		if in.Type().Elem.Size() != 1 {
			instrs, srcs = instrs+1, srcs+2
		}
		return instrs, srcs
	}
	return 1, in.NumArgs()
}

func (lw *lowerer) lowerBlock(b *ir.Block, copies []phiCopy) error {
	for _, in := range b.Instrs() {
		if in.IsPhi() {
			continue // becomes copies in predecessors
		}
		if in.IsTerminator() {
			// Phi copies for successors run before the terminator.
			lw.emitPhiCopies(copies)
			return lw.lowerTerminator(in)
		}
		lw.lowerInstr(in)
	}
	return fmt.Errorf("codegen: block %s has no terminator", b.Name)
}

func (lw *lowerer) lowerInstr(in *ir.Instr) {
	lw.curLoc = in.Loc()
	dst := NoReg
	if in.Type() != ir.Void {
		dst = lw.regs[in.ID()]
	}
	switch in.Op {
	case ir.OpICmp, ir.OpFCmp:
		lw.emit(Instr{Kind: KSetp, IROp: in.Op, Pred: in.Pred, Type: in.Arg(0).Type(),
			Dst: dst, Srcs: lw.srcs(lw.operand(in.Arg(0)), lw.operand(in.Arg(1)))})
	case ir.OpSelect:
		lw.emit(Instr{Kind: KSelp, Type: in.Type(), Dst: dst,
			Srcs: lw.srcs(lw.operand(in.Arg(0)), lw.operand(in.Arg(1)), lw.operand(in.Arg(2)))})
	case ir.OpTrunc, ir.OpZExt, ir.OpSExt, ir.OpSIToFP, ir.OpFPToSI, ir.OpFPExt, ir.OpFPTrunc:
		lw.emit(Instr{Kind: KCvt, IROp: in.Op, Type: in.Type(), SrcType: in.Arg(0).Type(),
			Dst: dst, Srcs: lw.srcs(lw.operand(in.Arg(0)))})
	case ir.OpLoad:
		lw.emit(Instr{Kind: KLd, Type: in.Type(), Dst: dst,
			Srcs: lw.srcs(lw.operand(in.Arg(0)))})
	case ir.OpStore:
		lw.emit(Instr{Kind: KSt, Type: in.Arg(0).Type(), Dst: NoReg,
			Srcs: lw.srcs(lw.operand(in.Arg(0)), lw.operand(in.Arg(1)))})
	case ir.OpGEP:
		lw.lowerGEP(in, dst)
	case ir.OpTID, ir.OpNTID, ir.OpCTAID, ir.OpNCTAID:
		lw.emit(Instr{Kind: KSpecial, IROp: in.Op, Type: ir.I32, Dst: dst})
	case ir.OpBarrier:
		lw.emit(Instr{Kind: KBar, Type: ir.Void, Dst: NoReg})
	default:
		// Arithmetic and math intrinsics.
		start := len(lw.st.srcs)
		for i := 0; i < in.NumArgs(); i++ {
			lw.st.srcs = append(lw.st.srcs, lw.operand(in.Arg(i)))
		}
		lw.emit(Instr{Kind: KCompute, IROp: in.Op, Type: in.Type(), Dst: dst, Srcs: lw.srcWindow(start)})
	}
}

// shiftImm[k] is the immediate k a GEP's scaling shl shifts by: one
// constant per amount, shared by every program, not one per GEP.
var shiftImm = func() (imm [64]*ir.Const) {
	for k := range imm {
		imm[k] = ir.ConstInt(ir.I64, int64(k))
	}
	return imm
}()

// lowerGEP expands ptr + idx*size into shl/mul + add, with a sign extension
// when the index is narrower than the 64-bit address — the same sequence as
// the paper's Listing 4 PTX (shl.b64 + add.s64).
func (lw *lowerer) lowerGEP(in *ir.Instr, dst Reg) {
	base := lw.operand(in.Arg(0))
	idx := lw.operand(in.Arg(1))
	idxT := in.Arg(1).Type()
	if idxT != ir.I64 {
		ext := lw.newReg()
		lw.emit(Instr{Kind: KCvt, IROp: ir.OpSExt, Type: ir.I64, SrcType: idxT, Dst: ext, Srcs: lw.srcs(idx)})
		idx = regOp(ext)
	}
	size := in.Type().Elem.Size()
	scaled := idx
	switch {
	case size == 1:
		// no scaling
	case size&(size-1) == 0:
		sh := lw.newReg()
		lw.emit(Instr{Kind: KCompute, IROp: ir.OpShl, Type: ir.I64, Dst: sh,
			Srcs: lw.srcs(idx, immOp(shiftImm[bits.TrailingZeros64(uint64(size))]))})
		scaled = regOp(sh)
	default:
		mu := lw.newReg()
		lw.emit(Instr{Kind: KCompute, IROp: ir.OpMul, Type: ir.I64, Dst: mu,
			Srcs: lw.srcs(idx, immOp(ir.ConstInt(ir.I64, size)))})
		scaled = regOp(mu)
	}
	lw.emit(Instr{Kind: KCompute, IROp: ir.OpAdd, Type: ir.I64, Dst: dst,
		Srcs: lw.srcs(base, scaled)})
}

func (lw *lowerer) lowerTerminator(in *ir.Instr) error {
	lw.curLoc = in.Loc()
	switch in.Op {
	case ir.OpBr:
		lw.emit(Instr{Kind: KBra, Type: ir.Void, Dst: NoReg,
			Targets: [2]int32{lw.index[in.BlockArg(0).ID()], -1}})
	case ir.OpCondBr:
		lw.emit(Instr{Kind: KCondBra, Type: ir.Void, Dst: NoReg,
			Srcs:    lw.srcs(lw.operand(in.Arg(0))),
			Targets: [2]int32{lw.index[in.BlockArg(0).ID()], lw.index[in.BlockArg(1).ID()]}})
	case ir.OpRet:
		lw.emit(Instr{Kind: KRet, Type: ir.Void, Dst: NoReg})
	default:
		return fmt.Errorf("codegen: unknown terminator %s", in.Op)
	}
	return nil
}

// phiCopy is one register a successor's phi needs written on the way out of
// a block. Once sequenced, a register below NoReg names the block's k-th
// cycle temporary, tempReg(k), which gets its register when it is emitted.
type phiCopy struct {
	dst Reg
	src Operand
	typ *ir.Type
	loc ir.Loc
}

// tempReg names a block's k-th phi-copy cycle temporary.
func tempReg(k int) Reg { return NoReg - 1 - Reg(k) }

// phiCopies appends to pairs the parallel copies feeding the phis of b's
// successors. Critical edges were split, so any successor with phis has b as
// its only source of this edge.
func (lw *lowerer) phiCopies(pairs []phiCopy, b *ir.Block) []phiCopy {
	for _, s := range b.Succs() {
		for _, phi := range s.Phis() {
			v := phi.PhiIncoming(b)
			src := lw.operand(v)
			dst := lw.regs[phi.ID()]
			if !src.IsImm() && src.Reg == dst {
				continue
			}
			pairs = append(pairs, phiCopy{dst, src, phi.Type(), phi.Loc()})
		}
	}
	return pairs
}

// sequenceCopies appends to out the parallel copies pairs as a sequence of
// movs: emit a copy whose destination is not a pending source; break a cycle
// by saving a source into a temporary. It consumes pairs.
func sequenceCopies(out, pairs []phiCopy) []phiCopy {
	temps := 0
	for len(pairs) > 0 {
		emitted := false
		for i, p := range pairs {
			conflict := false
			for j, q := range pairs {
				if i != j && !q.src.IsImm() && q.src.Reg == p.dst {
					conflict = true
					break
				}
			}
			if conflict {
				continue
			}
			out = append(out, p)
			pairs = append(pairs[:i], pairs[i+1:]...)
			emitted = true
			break
		}
		if emitted {
			continue
		}
		// Cycle: all remaining destinations are also pending sources. Move
		// one source aside.
		victim := pairs[0]
		tmp := tempReg(temps)
		temps++
		out = append(out, phiCopy{tmp, victim.src, victim.typ, victim.loc})
		for i := range pairs {
			if !pairs[i].src.IsImm() && pairs[i].src.Reg == victim.src.Reg {
				pairs[i].src = regOp(tmp)
			}
		}
	}
	return out
}

// emitPhiCopies emits a block's sequenced copies (before its terminator),
// giving each cycle temporary the next register.
func (lw *lowerer) emitPhiCopies(copies []phiCopy) {
	first := lw.next // tempReg(k)'s register is first+k
	reg := func(r Reg) Reg {
		if r < NoReg {
			return first + (NoReg - 1 - r)
		}
		return r
	}
	for _, c := range copies {
		if c.dst < NoReg {
			lw.newReg()
		}
		src := c.src
		src.Reg = reg(src.Reg)
		lw.curLoc = c.loc
		lw.emit(Instr{Kind: KMov, Type: c.typ, Dst: reg(c.dst), Srcs: lw.srcs(src)})
	}
}

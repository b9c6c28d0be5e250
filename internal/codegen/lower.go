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

// freeScratch holds the parked analysis storage Lower builds its trees in.
// The tables grow to what they serve, so any Scratch can serve any function.
var freeScratch = freelist.New[*analysis.Scratch]()

// Lower compiles an IR function to VPTX. It mutates f slightly (critical
// edges into phi-bearing blocks are split so phi copies have a home), then
// performs a standard phi-elimination lowering with parallel-copy
// sequencing. Allocas must have been promoted (run a pipeline first).
func Lower(f *ir.Function) (*Program, error) {
	for _, b := range f.Blocks() {
		for _, in := range b.Instrs() {
			if in.Op == ir.OpAlloca {
				return nil, fmt.Errorf("codegen: %s contains an alloca; run mem2reg first", f.Name)
			}
		}
	}
	splitCriticalEdges(f)

	lw := &lowerer{
		f:      f,
		prog:   &Program{Name: f.Name},
		params: make([]Reg, len(f.Params)),
		regs:   make([]Reg, f.InstrIDBound()),
		index:  make([]int, f.BlockIDBound()),
	}
	// Parameters get the first registers.
	for i, p := range f.Params {
		r := lw.newReg()
		lw.params[i] = r
		lw.prog.ParamRegs = append(lw.prog.ParamRegs, r)
		lw.prog.ParamTyps = append(lw.prog.ParamTyps, p.Typ)
	}
	// Reverse postorder block layout.
	order := rpo(f)
	for i, b := range order {
		lw.index[b.ID()] = i
		lw.prog.Blocks = append(lw.prog.Blocks, &Block{Index: i, Name: b.Name})
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
	for i, b := range order {
		if err := lw.lowerBlock(lw.prog.Blocks[i], b); err != nil {
			return nil, err
		}
	}
	lw.prog.NumRegs = int(lw.next)

	// Immediate post-dominators for the simulator's reconvergence stack,
	// built like the loop info below in recycled storage that is parked and
	// filed once both have been read.
	s, ok := freeScratch.Take()
	if !ok {
		s = new(analysis.Scratch)
	}
	pdt := s.PostDomTree(f)
	lw.prog.IPDom = make([]int, len(order))
	for i, b := range order {
		ip := pdt.Idom(b)
		if ip == nil {
			lw.prog.IPDom[i] = -1
		} else {
			lw.prog.IPDom[i] = lw.index[ip.ID()]
		}
	}

	// Line table and loop metadata for the profiler: one record per
	// instruction in flat PC order (the simulator's pre-decoded index), each
	// naming its source loc and innermost enclosing loop of the final IR.
	li := s.LoopInfo(f)
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
	lw.prog.Lines = make([]LineInfo, 0, lw.prog.NumInstrs())
	for i, vb := range lw.prog.Blocks {
		loopID := int32(-1)
		if l := li.LoopFor(order[i]); l != nil {
			loopID = int32(l.ID)
		}
		for j := range vb.Instrs {
			lw.prog.Lines = append(lw.prog.Lines, LineInfo{
				Loc: vb.Instrs[j].Loc, Block: int32(i), Loop: loopID,
			})
		}
	}
	s.Park()
	freeScratch.Put(s)
	return lw.prog, nil
}

// splitCriticalEdges splits edges from multi-successor blocks into
// phi-bearing multi-predecessor blocks, so phi copies can be placed on the
// edge.
func splitCriticalEdges(f *ir.Function) {
	for _, b := range append([]*ir.Block(nil), f.Blocks()...) {
		if len(b.Preds()) < 2 || len(b.Phis()) == 0 {
			continue
		}
		for _, p := range append([]*ir.Block(nil), b.Preds()...) {
			if len(p.Succs()) > 1 {
				transform.SplitCriticalEdge(f, p, b)
			}
		}
	}
}

func rpo(f *ir.Function) []*ir.Block {
	post := ir.AppendPostorder(make([]*ir.Block, 0, f.NumBlocks()), f.Entry(), (*ir.Block).Succs, make([]int32, f.BlockIDBound()), nil)
	slices.Reverse(post)
	return post
}

type lowerer struct {
	f      *ir.Function
	prog   *Program
	params []Reg // by Param.Index
	regs   []Reg // by Instr.ID
	next   Reg
	index  []int // by Block.ID: the block's position in the layout
	// curLoc is stamped onto every emitted instruction: the loc of the IR
	// instruction currently being lowered, so synthetic expansions (GEP
	// address math, phi-copy movs) inherit their originator's provenance.
	curLoc ir.Loc
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
			r = lw.params[x.Index]
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

func (lw *lowerer) emit(b *Block, in Instr) {
	in.Loc = lw.curLoc
	b.Instrs = append(b.Instrs, in)
}

func (lw *lowerer) lowerBlock(vb *Block, b *ir.Block) error {
	// Everything the block lowers to is countable before the first emit, so
	// its list is allocated once; only a phi-copy cycle's temporary (one mov
	// per cycle, rare) is not counted and makes append grow it.
	copies := lw.phiCopies(b)
	n := len(copies)
	for _, in := range b.Instrs() {
		switch {
		case in.IsPhi():
		case in.Op == ir.OpGEP:
			n += gepLen(in)
		default:
			n++
		}
	}
	vb.Instrs = make([]Instr, 0, n)
	for _, in := range b.Instrs() {
		if in.IsPhi() {
			continue // becomes copies in predecessors
		}
		if in.IsTerminator() {
			// Phi copies for successors run before the terminator.
			lw.emitPhiCopies(vb, copies)
			return lw.lowerTerminator(vb, b, in)
		}
		if err := lw.lowerInstr(vb, in); err != nil {
			return err
		}
	}
	return fmt.Errorf("codegen: block %s has no terminator", b.Name)
}

func (lw *lowerer) lowerInstr(vb *Block, in *ir.Instr) error {
	lw.curLoc = in.Loc()
	dst := NoReg
	if in.Type() != ir.Void {
		dst = lw.regs[in.ID()]
	}
	switch in.Op {
	case ir.OpICmp, ir.OpFCmp:
		lw.emit(vb, Instr{Kind: KSetp, IROp: in.Op, Pred: in.Pred, Type: in.Arg(0).Type(),
			Dst: dst, Srcs: []Operand{lw.operand(in.Arg(0)), lw.operand(in.Arg(1))}})
	case ir.OpSelect:
		lw.emit(vb, Instr{Kind: KSelp, Type: in.Type(), Dst: dst,
			Srcs: []Operand{lw.operand(in.Arg(0)), lw.operand(in.Arg(1)), lw.operand(in.Arg(2))}})
	case ir.OpTrunc, ir.OpZExt, ir.OpSExt, ir.OpSIToFP, ir.OpFPToSI, ir.OpFPExt, ir.OpFPTrunc:
		lw.emit(vb, Instr{Kind: KCvt, IROp: in.Op, Type: in.Type(), SrcType: in.Arg(0).Type(),
			Dst: dst, Srcs: []Operand{lw.operand(in.Arg(0))}})
	case ir.OpLoad:
		lw.emit(vb, Instr{Kind: KLd, Type: in.Type(), Dst: dst,
			Srcs: []Operand{lw.operand(in.Arg(0))}})
	case ir.OpStore:
		lw.emit(vb, Instr{Kind: KSt, Type: in.Arg(0).Type(), Dst: NoReg,
			Srcs: []Operand{lw.operand(in.Arg(0)), lw.operand(in.Arg(1))}})
	case ir.OpGEP:
		lw.lowerGEP(vb, in, dst)
	case ir.OpTID, ir.OpNTID, ir.OpCTAID, ir.OpNCTAID:
		lw.emit(vb, Instr{Kind: KSpecial, IROp: in.Op, Type: ir.I32, Dst: dst})
	case ir.OpBarrier:
		lw.emit(vb, Instr{Kind: KBar, Type: ir.Void, Dst: NoReg})
	default:
		// Arithmetic and math intrinsics.
		srcs := make([]Operand, 0, in.NumArgs())
		for i := 0; i < in.NumArgs(); i++ {
			srcs = append(srcs, lw.operand(in.Arg(i)))
		}
		lw.emit(vb, Instr{Kind: KCompute, IROp: in.Op, Type: in.Type(), Dst: dst, Srcs: srcs})
	}
	return nil
}

// gepLen is the number of instructions lowerGEP emits for in.
func gepLen(in *ir.Instr) int {
	n := 1
	if in.Arg(1).Type() != ir.I64 {
		n++
	}
	if in.Type().Elem.Size() != 1 {
		n++
	}
	return n
}

// lowerGEP expands ptr + idx*size into shl/mul + add, with a sign extension
// when the index is narrower than the 64-bit address — the same sequence as
// the paper's Listing 4 PTX (shl.b64 + add.s64).
func (lw *lowerer) lowerGEP(vb *Block, in *ir.Instr, dst Reg) {
	base := lw.operand(in.Arg(0))
	idx := lw.operand(in.Arg(1))
	idxT := in.Arg(1).Type()
	if idxT != ir.I64 {
		ext := lw.newReg()
		lw.emit(vb, Instr{Kind: KCvt, IROp: ir.OpSExt, Type: ir.I64, SrcType: idxT, Dst: ext, Srcs: []Operand{idx}})
		idx = regOp(ext)
	}
	size := in.Type().Elem.Size()
	scaled := idx
	switch {
	case size == 1:
		// no scaling
	case size&(size-1) == 0:
		sh := lw.newReg()
		lw.emit(vb, Instr{Kind: KCompute, IROp: ir.OpShl, Type: ir.I64, Dst: sh,
			Srcs: []Operand{idx, immOp(ir.ConstInt(ir.I64, int64(bits.TrailingZeros64(uint64(size)))))}})
		scaled = regOp(sh)
	default:
		mu := lw.newReg()
		lw.emit(vb, Instr{Kind: KCompute, IROp: ir.OpMul, Type: ir.I64, Dst: mu,
			Srcs: []Operand{idx, immOp(ir.ConstInt(ir.I64, size))}})
		scaled = regOp(mu)
	}
	lw.emit(vb, Instr{Kind: KCompute, IROp: ir.OpAdd, Type: ir.I64, Dst: dst,
		Srcs: []Operand{base, scaled}})
}

func (lw *lowerer) lowerTerminator(vb *Block, b *ir.Block, in *ir.Instr) error {
	lw.curLoc = in.Loc()
	switch in.Op {
	case ir.OpBr:
		lw.emit(vb, Instr{Kind: KBra, Type: ir.Void, Dst: NoReg,
			Targets: [2]int{lw.index[in.BlockArg(0).ID()], -1}})
	case ir.OpCondBr:
		lw.emit(vb, Instr{Kind: KCondBra, Type: ir.Void, Dst: NoReg,
			Srcs:    []Operand{lw.operand(in.Arg(0))},
			Targets: [2]int{lw.index[in.BlockArg(0).ID()], lw.index[in.BlockArg(1).ID()]}})
	case ir.OpRet:
		lw.emit(vb, Instr{Kind: KRet, Type: ir.Void, Dst: NoReg})
	default:
		return fmt.Errorf("codegen: unknown terminator %s", in.Op)
	}
	return nil
}

// phiCopy is one register a successor's phi needs written on the way out of
// a block.
type phiCopy struct {
	dst Reg
	src Operand
	typ *ir.Type
	loc ir.Loc
}

// phiCopies collects the parallel copies feeding the phis of b's successors.
// Critical edges were split, so any successor with phis has b as its only
// source of this edge.
func (lw *lowerer) phiCopies(b *ir.Block) []phiCopy {
	var pairs []phiCopy
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

// emitPhiCopies places pairs at the end of vb (before the terminator).
func (lw *lowerer) emitPhiCopies(vb *Block, pairs []phiCopy) {
	// Parallel copy sequencing: emit copies whose destination is not a
	// pending source; break cycles by saving a source into a temp.
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
			lw.curLoc = p.loc
			lw.emit(vb, Instr{Kind: KMov, Type: p.typ, Dst: p.dst, Srcs: []Operand{p.src}})
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
		tmp := lw.newReg()
		lw.curLoc = victim.loc
		lw.emit(vb, Instr{Kind: KMov, Type: victim.typ, Dst: tmp, Srcs: []Operand{victim.src}})
		for i := range pairs {
			if !pairs[i].src.IsImm() && pairs[i].src.Reg == victim.src.Reg {
				pairs[i].src = regOp(tmp)
			}
		}
	}
}

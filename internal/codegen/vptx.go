// Package codegen lowers the SSA IR to VPTX, a PTX-like virtual ISA with
// infinite typed registers. The lowering makes the costs the paper reasons
// about explicit: phi nodes become `mov` chains (the data-movement
// instructions u&u eliminates), selects become `selp`, comparisons `setp`,
// and GEPs expand to `shl`+`add` address arithmetic exactly like the PTX in
// the paper's Listings 4 and 5.
//
// A lowered Program is a few exactly sized arrays: one instruction array,
// every block's instructions end to end in layout order, each Block.Instrs
// a window of it capped at the block's end; one operand pool, each
// Instr.Srcs a capped window of it; and the line table, Program.Lines, one
// record per instruction in the same order, which is the only record of an
// instruction's source loc and enclosing loop. Lower counts everything
// before it emits, and works in tables it borrows from a bounded free list.
package codegen

import (
	"fmt"
	"strings"
	"sync"

	"uu/internal/ir"
)

// Class buckets instructions the way nvprof's inst_* counters do.
type Class int

// Instruction classes; the simulator accumulates per-class dynamic counts.
const (
	ClassCompute Class = iota // arithmetic, setp, math
	ClassMisc                 // mov, selp, cvt (nvprof inst_misc)
	ClassControl              // bra, ret, bar (nvprof inst_control)
	ClassMemory               // ld, st
	ClassSpecial              // reads of tid/ntid/ctaid/nctaid
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassCompute:
		return "compute"
	case ClassMisc:
		return "misc"
	case ClassControl:
		return "control"
	case ClassMemory:
		return "memory"
	case ClassSpecial:
		return "special"
	}
	return "?"
}

// Kind is the VPTX instruction kind.
type Kind uint8

// VPTX instruction kinds.
const (
	KInvalid Kind = iota
	KCompute      // IROp arithmetic/math/minmax on Srcs
	KSetp         // predicate compare, IROp = OpICmp/OpFCmp with Pred
	KSelp         // Dst = Srcs[0] ? Srcs[1] : Srcs[2]
	KMov          // Dst = Srcs[0]
	KCvt          // conversion, IROp gives the conversion opcode
	KLd           // Dst = mem[Srcs[0]]
	KSt           // mem[Srcs[1]] = Srcs[0]
	KBra          // unconditional branch to Targets[0]
	KCondBra      // branch on Srcs[0] to Targets[0] else Targets[1]
	KRet          // thread exit
	KBar          // barrier
	KSpecial      // Dst = special register (IROp = OpTID etc.)
)

// Reg is a virtual register index.
type Reg int32

// NoReg marks "no destination".
const NoReg Reg = -1

// Operand is a register or an immediate.
type Operand struct {
	Reg Reg
	Imm *ir.Const // nil when register
}

// IsImm reports whether the operand is an immediate.
func (o Operand) IsImm() bool { return o.Imm != nil }

func regOp(r Reg) Operand       { return Operand{Reg: r} }
func immOp(c *ir.Const) Operand { return Operand{Reg: NoReg, Imm: c} }

// Instr is one VPTX instruction, 72 bytes. Its source provenance is its
// record in the program's line table (Program.Lines), not a field.
type Instr struct {
	Kind Kind
	Dst  Reg     // beside Kind, so the two share a word
	IROp ir.Op   // semantic opcode for KCompute/KSetp/KCvt/KSpecial
	Pred ir.Pred // for KSetp
	Type *ir.Type
	// SrcType is the operand type of a KCvt instruction (the width a zext
	// widens *from*); nil for every other kind.
	SrcType *ir.Type
	Srcs    []Operand // a window of the program's operand pool
	Targets [2]int32  // block indexes for KBra/KCondBra
}

// Class returns the nvprof-style class of the instruction.
func (in *Instr) Class() Class {
	switch in.Kind {
	case KMov, KSelp, KCvt:
		return ClassMisc
	case KBra, KCondBra, KRet, KBar:
		return ClassControl
	case KLd, KSt:
		return ClassMemory
	case KSpecial:
		return ClassSpecial
	default:
		return ClassCompute
	}
}

// Block is a VPTX basic block.
type Block struct {
	Index int
	Name  string
	// Instrs is a window of the program's one instruction array, capped at
	// the block's end.
	Instrs []Instr
}

// Program is a lowered kernel.
type Program struct {
	Name    string
	Blocks  []Block // layout order
	NumRegs int
	// ParamRegs[i] is the register preloaded with parameter i at launch.
	ParamRegs []Reg
	ParamTyps []*ir.Type
	// ipdom[b] is the immediate post-dominator block index of b (-1 = exit);
	// the simulator's reconvergence stack uses it.
	IPDom []int

	// Lines is the line table: one record per instruction in flat PC order
	// (blocks in layout order, instructions in block order — the same global
	// index the simulator's pre-decoded form and per-PC profile counters
	// use). Lines[pc] gives the source provenance and enclosing loop of the
	// instruction at pc; it is the only record of either. An instruction
	// inherits the loc of the IR instruction it lowers (synthetic expansions
	// — GEP address math, phi-copy movs — their originator's).
	Lines []LineInfo
	// Loops describes the natural loops of the final (post-optimization) IR,
	// indexed by position; LineInfo.Loop holds the LoopMeta ID. Parent links
	// let a profiler reconstruct the loop nest chain for stack rendering.
	Loops []LoopMeta

	// DecodedOnce guards Decoded, an opaque slot where a consumer caches a
	// derived form of the program. The simulator stores its pre-decoded
	// instruction stream here so decoding happens once per compiled program
	// and is shared across warps, launches, and worker counts. Programs are
	// immutable after Lower, so the cache never invalidates.
	DecodedOnce sync.Once
	Decoded     any
}

// LineInfo is one line-table record: the provenance of the VPTX instruction
// at a flat PC.
type LineInfo struct {
	Loc   ir.Loc // source provenance; zero when unknown
	Block int32  // block index (layout order)
	Loop  int32  // LoopMeta ID of the innermost enclosing loop, -1 when none
}

// LoopMeta describes one natural loop of the lowered function.
type LoopMeta struct {
	ID     int32  // deterministic loop id (header RPO order)
	Parent int32  // ID of the enclosing loop, -1 at top level
	Line   int32  // anchoring source line of the header (ir.BlockLine), 0 if unknown
	Iter   int32  // unroll-iteration clone tag of the header (ir.Loc.Iter)
	Dup    int32  // unmerge path-duplication clone tag of the header (ir.Loc.Dup)
	Depth  int32  // nesting depth, 1 = outermost
	Header string // header block name
}

// Origin returns the header's full source provenance (line + clone tags).
// Loops sharing a Line but differing in Iter/Dup are unroll/unmerge clones
// of the same source loop; the profiler's predicted-vs-measured join uses
// the full origin so clones can't double-count or mask each other.
func (m *LoopMeta) Origin() ir.Loc {
	return ir.Loc{Line: m.Line, Iter: m.Iter, Dup: m.Dup}
}

// NumInstrs returns the total instruction count.
func (p *Program) NumInstrs() int {
	n := 0
	for i := range p.Blocks {
		n += len(p.Blocks[i].Instrs)
	}
	return n
}

// BytesPerInstr is the modelled encoded size of one instruction (SASS on
// Volta uses 16 bytes per instruction pair slot; we use 8 per instruction).
const BytesPerInstr = 8

// CodeBytes returns the modelled binary size of the program — the quantity
// Figure 6b reports ratios of.
func (p *Program) CodeBytes() int64 { return int64(p.NumInstrs()) * BytesPerInstr }

// String renders the program in a PTX-like syntax.
func (p *Program) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, ".kernel %s (regs=%d)\n", p.Name, p.NumRegs)
	for bi := range p.Blocks {
		b := &p.Blocks[bi]
		fmt.Fprintf(&sb, "$%s:\n", b.Name)
		for i := range b.Instrs {
			sb.WriteString("  ")
			sb.WriteString(p.instrString(&b.Instrs[i]))
			sb.WriteString("\n")
		}
	}
	return sb.String()
}

func (p *Program) instrString(in *Instr) string {
	opnd := func(o Operand) string {
		if o.IsImm() {
			return o.Imm.Ref()
		}
		return fmt.Sprintf("%%r%d", o.Reg)
	}
	var srcs []string
	for _, s := range in.Srcs {
		srcs = append(srcs, opnd(s))
	}
	dst := ""
	if in.Dst != NoReg {
		dst = fmt.Sprintf("%%r%d, ", in.Dst)
	}
	switch in.Kind {
	case KCompute:
		return fmt.Sprintf("%s.%s %s%s", in.IROp, in.Type, dst, strings.Join(srcs, ", "))
	case KSetp:
		return fmt.Sprintf("setp.%s.%s %s%s", in.Pred, in.Type, dst, strings.Join(srcs, ", "))
	case KSelp:
		return fmt.Sprintf("selp.%s %s%s", in.Type, dst, strings.Join(srcs, ", "))
	case KMov:
		return fmt.Sprintf("mov.%s %s%s", in.Type, dst, srcs[0])
	case KCvt:
		return fmt.Sprintf("cvt.%s.%s %s%s", in.IROp, in.Type, dst, srcs[0])
	case KLd:
		return fmt.Sprintf("ld.%s %s[%s]", in.Type, dst, srcs[0])
	case KSt:
		return fmt.Sprintf("st.%s [%s], %s", in.Type, srcs[1], srcs[0])
	case KBra:
		return fmt.Sprintf("bra $%s", p.Blocks[in.Targets[0]].Name)
	case KCondBra:
		return fmt.Sprintf("@%s bra $%s, $%s", srcs[0], p.Blocks[in.Targets[0]].Name, p.Blocks[in.Targets[1]].Name)
	case KRet:
		return "ret"
	case KBar:
		return "bar.sync"
	case KSpecial:
		return fmt.Sprintf("mov.special %s%%%s", dst, in.IROp)
	}
	return "??"
}

// CountKind returns the static number of instructions of the given kind —
// used by tests mirroring the paper's Listing 4/5 comparison (selp vs mov).
func (p *Program) CountKind(k Kind) int {
	n := 0
	for bi := range p.Blocks {
		b := &p.Blocks[bi]
		for i := range b.Instrs {
			if b.Instrs[i].Kind == k {
				n++
			}
		}
	}
	return n
}

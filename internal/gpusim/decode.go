package gpusim

import (
	"errors"
	"fmt"
	"sync"

	"uu/internal/codegen"
	"uu/internal/interp"
	"uu/internal/ir"
)

// ErrDecode reports that a program is not valid VPTX as far as the
// simulator's decoder is concerned — an unknown special register, a zext
// with no recorded source type, an unhandled instruction kind, a bad
// operand count. These are malformed-input conditions (a buggy or
// hand-crafted Program), not simulator invariants, so they surface as
// wrapped errors through Run/RunCtx instead of panics; match with
// errors.Is(err, ErrDecode).
var ErrDecode = errors.New("invalid program")

// This file builds the pre-decoded execution form of a VPTX program. The
// interpreter loop in sim.go re-derived static facts dynamically on every
// executed instruction: interface assertions materializing immediates,
// nested kind/opcode switches, issue/latency lookups, per-miss icache
// scans. Decoding hoists all of it to a one-time pass per compiled
// program: immediates become interp.Values, dispatch collapses to a flat
// execOp tag, truncation/rounding/unsigned-masking are precomputed, and
// the instruction stream is one cache-friendly array indexed by global
// instruction id (also the icache address). The decoded form is cached on
// codegen.Program.Decoded, so it is built once and shared across warps,
// launches, harness workers, and sweep configurations.

// execOp is the flat dispatch tag of a decoded instruction: one switch
// level in the hot loop instead of Kind plus IROp plus type tests.
type execOp uint8

const (
	xInvalid execOp = iota

	// control / memory / structural
	xBra
	xRet
	xCondBra
	xLd
	xSt
	xBar
	xTID
	xNTID
	xCTAID
	xNCTAID

	// data movement and predication
	xMov
	xSelp
	xSetpI
	xSetpF

	// conversions
	xTrunc
	xZExt
	xSExt
	xSIToFP
	xFPToSI
	xFPExt
	xFPTrunc

	// integer compute
	xAdd
	xSub
	xMul
	xSDiv
	xUDiv
	xSRem
	xURem
	xShl
	xLShr
	xAShr
	xAnd
	xOr
	xXor
	xSMin
	xSMax

	// floating-point compute
	xFAdd
	xFSub
	xFMul
	xFDiv
	xPow
	xFMin
	xFMax
	xSqrt
	xFAbs
	xExp
	xLog
	xSin
	xCos
	xFloor
)

// Post-op integer truncation tags (the decoded form of truncI's type
// switch).
const (
	tNone uint8 = iota
	tI1
	tI8
	tI32
)

// Scoreboard latency classes; warpSim resolves them against the device
// config at run time (class 0 is the only config-dependent latency).
const (
	latMem uint8 = iota // cfg.MemLoadLatency
	lat24               // integer/float division
	lat20               // transcendentals
	lat5                // everything else
)

// dSrc is a decoded operand: a register index, or a materialized
// immediate (reg < 0) — no interface assertion in the hot loop.
type dSrc struct {
	imm interp.Value
	reg int32
}

// dInstr is one pre-decoded instruction. Everything the execution core
// needs per dynamic instruction is precomputed here.
type dInstr struct {
	exec     execOp
	class    uint8 // codegen.Class
	trunc    uint8 // post-op integer truncation tag
	rndF32   bool  // round float results to f32
	latClass uint8
	memKind  uint8 // ir.Kind for xLd/xSt
	nSrcs    uint8
	pred     ir.Pred
	dst      int32 // destination register, -1 = none
	t0, t1   int32 // branch targets
	issue    float64
	aux      uint64 // unsigned-compare mask, shift mask, or zext mask
	memSize  int64  // access size in bytes for xLd/xSt
	typ      *ir.Type
	srcs     [3]dSrc
}

// decodedProgram is the flat, shared execution form of a VPTX program.
type decodedProgram struct {
	name       string
	instrs     []dInstr
	blockStart []int32
	blockEnd   []int32
	ipdom      []int
	numRegs    int
	paramRegs  []int32

	// lineMemo caches the per-instruction icache line index for each
	// ICacheLineInstrs value seen (the only device parameter the decoded
	// form depends on).
	mu       sync.Mutex
	lineMemo map[int][]int32

	// threaded caches the compiled threaded-code form (threaded.go). Its
	// closures capture only decode-time constants, so like the decoded
	// form itself it is shared across warps, launches, and harness workers.
	threadedOnce sync.Once
	threaded     *threadedProgram
}

// threadedProg returns the threaded-code compilation of the program,
// building it on first use.
func (dp *decodedProgram) threadedProg() *threadedProgram {
	dp.threadedOnce.Do(func() { dp.threaded = compileThreaded(dp) })
	return dp.threaded
}

// decodeResult caches the outcome of decodeProgram — including a decode
// failure, which is a property of the program and equally permanent.
type decodeResult struct {
	dp  *decodedProgram
	err error
}

// decoded returns the cached decoded form of p, building it on first use.
func decoded(p *codegen.Program) (*decodedProgram, error) {
	p.DecodedOnce.Do(func() {
		dp, err := decodeProgram(p)
		p.Decoded = decodeResult{dp, err}
	})
	r := p.Decoded.(decodeResult)
	return r.dp, r.err
}

// lines returns the icache line index of every instruction for the given
// line size, memoized per decoded program.
func (dp *decodedProgram) lines(lineInstrs int) []int32 {
	dp.mu.Lock()
	defer dp.mu.Unlock()
	if l, ok := dp.lineMemo[lineInstrs]; ok {
		return l
	}
	l := make([]int32, len(dp.instrs))
	for i := range l {
		l[i] = int32(i / lineInstrs)
	}
	dp.lineMemo[lineInstrs] = l
	return l
}

// numLines returns how many icache lines the program spans.
func (dp *decodedProgram) numLines(lineInstrs int) int {
	return (len(dp.instrs) + lineInstrs - 1) / lineInstrs
}

func decodeProgram(p *codegen.Program) (*decodedProgram, error) {
	dp := &decodedProgram{
		name:       p.Name,
		blockStart: make([]int32, len(p.Blocks)),
		blockEnd:   make([]int32, len(p.Blocks)),
		ipdom:      p.IPDom,
		numRegs:    p.NumRegs,
		lineMemo:   map[int][]int32{},
	}
	for _, r := range p.ParamRegs {
		dp.paramRegs = append(dp.paramRegs, int32(r))
	}
	n := 0
	for i, b := range p.Blocks {
		dp.blockStart[i] = int32(n)
		n += len(b.Instrs)
		dp.blockEnd[i] = int32(n)
	}
	dp.instrs = make([]dInstr, 0, n)
	for bi, b := range p.Blocks {
		for i := range b.Instrs {
			d, err := decodeInstr(p, &b.Instrs[i])
			if err != nil {
				return nil, fmt.Errorf("gpusim: %s block %d instr %d: %w", p.Name, bi, i, err)
			}
			dp.instrs = append(dp.instrs, d)
		}
	}
	return dp, nil
}

// uMask returns the mask that zero-extends a value of integer type t:
// toU(t, v) == uint64(v) & uMask(t) for canonically truncated values.
func uMask(t *ir.Type) uint64 {
	switch t.Kind {
	case ir.KindI1:
		return 1
	case ir.KindI8:
		return 0xFF
	case ir.KindI32:
		return 0xFFFF_FFFF
	default:
		return ^uint64(0)
	}
}

func truncTagOf(t *ir.Type) uint8 {
	switch t.Kind {
	case ir.KindI1:
		return tI1
	case ir.KindI8:
		return tI8
	case ir.KindI32:
		return tI32
	default:
		return tNone
	}
}

func decodeInstr(p *codegen.Program, in *codegen.Instr) (dInstr, error) {
	d := dInstr{
		class:    uint8(in.Class()),
		latClass: latClassOf(in),
		pred:     in.Pred,
		dst:      int32(in.Dst),
		t0:       int32(in.Targets[0]),
		t1:       int32(in.Targets[1]),
		issue:    float64(in.IssueCycles()),
		typ:      in.Type,
	}
	if in.Dst == codegen.NoReg {
		d.dst = -1
	}
	if len(in.Srcs) > 3 {
		return dInstr{}, fmt.Errorf("%w: %d operands", ErrDecode, len(in.Srcs))
	}
	d.nSrcs = uint8(len(in.Srcs))
	for i, s := range in.Srcs {
		if s.IsImm() {
			c := s.Imm.(*ir.Const)
			v := interp.IntVal(c.Int)
			if c.Typ.IsFloat() {
				v = interp.FloatVal(c.Float)
			}
			d.srcs[i] = dSrc{reg: -1, imm: v}
		} else {
			d.srcs[i] = dSrc{reg: int32(s.Reg)}
		}
	}

	switch in.Kind {
	case codegen.KBra:
		d.exec = xBra
	case codegen.KRet:
		d.exec = xRet
	case codegen.KCondBra:
		d.exec = xCondBra
	case codegen.KLd:
		d.exec = xLd
		d.memKind = uint8(in.Type.Kind)
		d.memSize = in.Type.Size()
	case codegen.KSt:
		d.exec = xSt
		d.memKind = uint8(in.Type.Kind)
		d.memSize = in.Type.Size()
	case codegen.KBar:
		d.exec = xBar
	case codegen.KSpecial:
		switch in.IROp {
		case ir.OpTID:
			d.exec = xTID
		case ir.OpNTID:
			d.exec = xNTID
		case ir.OpCTAID:
			d.exec = xCTAID
		case ir.OpNCTAID:
			d.exec = xNCTAID
		default:
			return dInstr{}, fmt.Errorf("%w: bad special register %s", ErrDecode, in.IROp)
		}
	case codegen.KMov:
		d.exec = xMov
	case codegen.KSelp:
		d.exec = xSelp
	case codegen.KSetp:
		// The compare reads operands of in.Type (the *source* type);
		// unsigned predicates zero-extend through aux.
		if in.IROp == ir.OpICmp {
			d.exec = xSetpI
			d.aux = uMask(in.Type)
		} else {
			d.exec = xSetpF
		}
	case codegen.KCvt:
		d.trunc = truncTagOf(in.Type)
		d.rndF32 = in.Type == ir.F32
		switch in.IROp {
		case ir.OpTrunc:
			d.exec = xTrunc
		case ir.OpZExt:
			if in.SrcType == nil {
				return dInstr{}, fmt.Errorf("%w: zext without a recorded source type", ErrDecode)
			}
			d.exec = xZExt
			d.aux = uMask(in.SrcType)
		case ir.OpSExt:
			d.exec = xSExt
		case ir.OpSIToFP:
			d.exec = xSIToFP
		case ir.OpFPToSI:
			d.exec = xFPToSI
		case ir.OpFPExt:
			d.exec = xFPExt
		case ir.OpFPTrunc:
			d.exec = xFPTrunc
		default:
			return dInstr{}, fmt.Errorf("%w: bad conversion %s", ErrDecode, in.IROp)
		}
	case codegen.KCompute:
		d.trunc = truncTagOf(in.Type)
		d.rndF32 = in.Type == ir.F32
		if in.Type.IsFloat() {
			switch in.IROp {
			case ir.OpFAdd:
				d.exec = xFAdd
			case ir.OpFSub:
				d.exec = xFSub
			case ir.OpFMul:
				d.exec = xFMul
			case ir.OpFDiv:
				d.exec = xFDiv
			case ir.OpPow:
				d.exec = xPow
			case ir.OpFMin:
				d.exec = xFMin
			case ir.OpFMax:
				d.exec = xFMax
			case ir.OpSqrt:
				d.exec = xSqrt
			case ir.OpFAbs:
				d.exec = xFAbs
			case ir.OpExp:
				d.exec = xExp
			case ir.OpLog:
				d.exec = xLog
			case ir.OpSin:
				d.exec = xSin
			case ir.OpCos:
				d.exec = xCos
			case ir.OpFloor:
				d.exec = xFloor
			default:
				return dInstr{}, fmt.Errorf("%w: bad float op %s", ErrDecode, in.IROp)
			}
		} else {
			switch in.IROp {
			case ir.OpAdd:
				d.exec = xAdd
			case ir.OpSub:
				d.exec = xSub
			case ir.OpMul:
				d.exec = xMul
			case ir.OpSDiv:
				d.exec = xSDiv
			case ir.OpUDiv:
				d.exec = xUDiv
			case ir.OpSRem:
				d.exec = xSRem
			case ir.OpURem:
				d.exec = xURem
			case ir.OpShl:
				d.exec = xShl
				d.aux = uint64(in.Type.Bits() - 1)
			case ir.OpLShr:
				d.exec = xLShr
				d.aux = uint64(in.Type.Bits() - 1)
			case ir.OpAShr:
				d.exec = xAShr
				d.aux = uint64(in.Type.Bits() - 1)
			case ir.OpAnd:
				d.exec = xAnd
			case ir.OpOr:
				d.exec = xOr
			case ir.OpXor:
				d.exec = xXor
			case ir.OpSMin:
				d.exec = xSMin
			case ir.OpSMax:
				d.exec = xSMax
			default:
				return dInstr{}, fmt.Errorf("%w: bad int op %s", ErrDecode, in.IROp)
			}
		}
	default:
		return dInstr{}, fmt.Errorf("%w: unhandled instruction kind %d", ErrDecode, in.Kind)
	}
	return d, nil
}

// latClassOf mirrors the scoreboard result-latency model of instrLatency.
func latClassOf(in *codegen.Instr) uint8 {
	switch in.Kind {
	case codegen.KLd:
		return latMem
	case codegen.KCompute:
		switch in.IROp {
		case ir.OpSDiv, ir.OpUDiv, ir.OpSRem, ir.OpURem, ir.OpFDiv:
			return lat24
		case ir.OpSqrt, ir.OpExp, ir.OpLog, ir.OpSin, ir.OpCos, ir.OpPow:
			return lat20
		}
		return lat5
	default:
		return lat5
	}
}

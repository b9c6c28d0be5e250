package gpusim

import (
	"errors"
	"fmt"

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

// This file lays a VPTX program out in the simulator's one execution form,
// so that the warp loop re-derives no static fact per executed instruction.
// decodeProgram walks the blocks and hands each codegen.Instr to the
// threaded compiler (threaded.go), which reads its kind, opcode and type
// once and captures what the instruction needs — registers, pooled
// immediates, truncation width, masks, f32 rounding, memory kind and size —
// in the instruction's closure and timing record. The result, indexed by
// global instruction id (also the icache address), is cached on
// codegen.Program.Decoded, so it is built once and shared across warps,
// launches, harness workers, and sweep configurations.

// Scoreboard latency classes; warpSim resolves them against the device
// config at run time (class 0 is the only config-dependent latency).
const (
	latMem uint8 = iota // cfg.MemLoadLatency
	lat24               // integer/float division
	lat20               // transcendentals
	lat5                // everything else
)

// decodedProgram is the shared execution form of a VPTX program: its block
// layout and reconvergence facts, and the threaded code the warp loop runs.
// Its closures capture only decode-time constants and the SoA lane stride is
// read from the warpSim at run time, so one decoded program serves every
// warp, launch, device and harness worker.
type decodedProgram struct {
	name       string
	blockStart []int32
	blockEnd   []int32
	// targets holds each block terminator's two branch targets, which the
	// divergence policies read when the block ends in a branch.
	targets   [][2]int32
	ipdom     []int
	numRegs   int
	paramRegs []int32

	// ops and tim are each instruction's closure and timing record.
	ops []threadOp
	tim []tTiming
	// blockClass counts each block's instructions per codegen.Class; the
	// per-block metrics add blockClass[b][c] * activeLanes.
	blockClass [][5]int32
	// consts are the pooled immediates, which occupy the pseudo-register
	// indices [numRegs, fileRegs()).
	consts []interp.Value
}

// fileRegs is the width of a warp's SoA register files: the program's
// registers plus its pooled immediates.
func (dp *decodedProgram) fileRegs() int { return dp.numRegs + len(dp.consts) }

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

// numLines returns how many icache lines the program spans.
func (dp *decodedProgram) numLines(lineInstrs int) int {
	return (len(dp.ops) + lineInstrs - 1) / lineInstrs
}

// decodeProgram lays p out and compiles each of its instructions in one
// pass.
func decodeProgram(p *codegen.Program) (*decodedProgram, error) {
	n := p.NumInstrs()
	dp := &decodedProgram{
		name:       p.Name,
		blockStart: make([]int32, len(p.Blocks)),
		blockEnd:   make([]int32, len(p.Blocks)),
		targets:    make([][2]int32, len(p.Blocks)),
		ipdom:      p.IPDom,
		numRegs:    p.NumRegs,
		ops:        make([]threadOp, n),
		tim:        make([]tTiming, n),
		blockClass: make([][5]int32, len(p.Blocks)),
	}
	for _, r := range p.ParamRegs {
		dp.paramRegs = append(dp.paramRegs, int32(r))
	}
	c := &compiler{dp: dp, pool: map[constKey]int32{}}
	gi := int32(0)
	for bi, b := range p.Blocks {
		dp.blockStart[bi] = gi
		for i := range b.Instrs {
			if err := c.add(&b.Instrs[i], gi, bi); err != nil {
				return nil, fmt.Errorf("gpusim: %s block %d instr %d: %w", p.Name, bi, i, err)
			}
			gi++
		}
		dp.blockEnd[bi] = gi
		if k := len(b.Instrs); k > 0 {
			dp.targets[bi] = b.Instrs[k-1].Targets
		}
	}
	return dp, nil
}

// uMask returns the mask that zero-extends a value of integer type t:
// toU(t.Kind, v) == uint64(v) & uMask(t) for canonically truncated values.
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

// timingOf is the simulator's timing table: in's warp issue cost, loosely
// following Volta (division and transcendentals take several cycles to
// issue), and the scoreboard latency class of its result.
func timingOf(in *codegen.Instr) (issue float64, lat uint8) {
	switch in.Kind {
	case codegen.KLd:
		return 1, latMem
	case codegen.KCompute:
		switch in.IROp {
		case ir.OpSDiv, ir.OpUDiv, ir.OpSRem, ir.OpURem:
			return 8, lat24
		case ir.OpFDiv:
			return 6, lat24
		case ir.OpSqrt, ir.OpExp, ir.OpLog, ir.OpSin, ir.OpCos, ir.OpPow:
			return 4, lat20
		}
		return 1, lat5
	case codegen.KBra, codegen.KCondBra, codegen.KRet:
		return 2, lat5
	default:
		return 1, lat5
	}
}

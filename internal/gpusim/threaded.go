package gpusim

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"uu/internal/interp"
	"uu/internal/ir"
)

// This file is the simulator's execution core, a threaded-code design. The
// decoded instruction array is compiled once per program into an array of
// closures — one specialized Go function per instruction — that operate on
// SoA register files: each register is WarpSize consecutive int64/float64
// lanes, so a full-warp arithmetic op is one contiguous 32-iteration loop
// the compiler keeps in machine registers, with no dispatch switch and no
// boxed interp.Value traffic. The warp loop fuses each basic block into a
// superinstruction: the divergence policy picks (block, mask), the block's
// closures run back to back, occupancy metrics and profile execution
// counters are accounted in bulk at block exit, and control returns to the
// policy only at the terminator.
//
// The cost model lives in runThreaded alone. Integer counters commute, so
// they are bulk-added per block; the warp clock is float arithmetic and is
// NOT associative, so every instruction advances it through one fixed
// sequence — fetch charge, exposed dependency stall, issue, scoreboard
// update, memory cost — whose order the golden corpora pin. Closures are
// specialized per opcode, operand type and truncation tag, with full-warp
// fast loops; the long tail goes through the shared kernels of ops.go.
// Immediates are pooled into broadcast pseudo-registers past dp.numRegs so
// every closure reads plain register lanes. The design this replaced — one
// dispatch switch per retired instruction over boxed interp.Value registers,
// every scalar op through the ops.go kernels — is kept as the differential
// reference in refcore_test.go, which is what holds the specialized
// closures below to the plain definition of each opcode.

// threadOp executes one compiled instruction for the active lanes and
// returns the memory bandwidth cycles it adds to the warp clock (0 for
// everything but ld/st, which is float-exact to add). Closures capture
// only decode-time constants; all run state lives on the warpSim.
type threadOp func(w *warpSim, active uint32) float64

// tTiming is the compact per-instruction record the timing scaffold reads
// instead of the full dInstr: issue cost, scoreboard sources (the original
// register operands — pooled immediates carry no dependency), destination,
// and latency class.
type tTiming struct {
	issue    float64
	srcs     [3]int32
	dst      int32
	latClass uint8
}

// tBlock is per-block metadata for bulk accounting.
type tBlock struct {
	// classThread counts the block's instructions per codegen.Class; the
	// per-block metrics add classThread[c] * activeLanes.
	classThread [5]int32
}

// threadedProgram is the compiled threaded-code form of a decoded program,
// cached on it and shared across warps, devices, and worker shards (the
// SoA lane stride is read from the warpSim at run time, so one compilation
// serves every warp size).
type threadedProgram struct {
	ops    []threadOp
	tim    []tTiming
	blocks []tBlock
	// numRegs is dp.numRegs plus the pooled immediates, which occupy the
	// pseudo-register indices [dp.numRegs, numRegs).
	numRegs int
	consts  []interp.Value
}

// constKey identifies a pooled immediate by exact bits: float keys go
// through Float64bits so -0.0 and 0.0 (map-equal, bit-distinct) do not
// alias one pool slot.
type constKey struct {
	i int64
	f uint64
}

type threadedCompiler struct {
	dp     *decodedProgram
	consts []interp.Value
	pool   map[constKey]int32
}

// constReg returns the pseudo-register broadcasting v to every lane.
func (c *threadedCompiler) constReg(v interp.Value) int32 {
	k := constKey{v.I, math.Float64bits(v.F)}
	if r, ok := c.pool[k]; ok {
		return r
	}
	r := int32(c.dp.numRegs + len(c.consts))
	c.consts = append(c.consts, v)
	c.pool[k] = r
	return r
}

// srcReg resolves operand i to an SoA register index: the instruction's
// register, a pooled immediate, or (past nSrcs) the zero constant the
// scalar kernels default absent operands to.
func (c *threadedCompiler) srcReg(in *dInstr, i int) int32 {
	if i >= int(in.nSrcs) {
		return c.constReg(interp.Value{})
	}
	if s := &in.srcs[i]; s.reg >= 0 {
		return s.reg
	}
	return c.constReg(in.srcs[i].imm)
}

func compileThreaded(dp *decodedProgram) *threadedProgram {
	c := &threadedCompiler{dp: dp, pool: map[constKey]int32{}}
	tp := &threadedProgram{
		ops:    make([]threadOp, len(dp.instrs)),
		tim:    make([]tTiming, len(dp.instrs)),
		blocks: make([]tBlock, len(dp.blockStart)),
	}
	for gi := range dp.instrs {
		in := &dp.instrs[gi]
		t := tTiming{issue: in.issue, dst: in.dst, latClass: in.latClass, srcs: [3]int32{-1, -1, -1}}
		for si := uint8(0); si < in.nSrcs; si++ {
			t.srcs[si] = in.srcs[si].reg
		}
		tp.tim[gi] = t
		tp.ops[gi] = c.compileOp(in, int32(gi))
	}
	for bi := range tp.blocks {
		blk := &tp.blocks[bi]
		for gi := dp.blockStart[bi]; gi < dp.blockEnd[bi]; gi++ {
			blk.classThread[dp.instrs[gi].class]++
		}
	}
	tp.numRegs = dp.numRegs + len(c.consts)
	tp.consts = c.consts
	return tp
}

// soaI returns register r's int lanes; soaF its float lanes.
func (w *warpSim) soaI(r int32) []int64 {
	base := int(r) * w.laneW
	return w.regsI[base : base+w.laneW]
}

func (w *warpSim) soaF(r int32) []float64 {
	base := int(r) * w.laneW
	return w.regsF[base : base+w.laneW]
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// compileOp builds the closure for one instruction. Control-flow ops
// record their outcome on the warpSim — a mid-block branch included, which
// takes effect when the block ends — and the block loop hands it to the
// divergence policy after the block's last instruction.
func (c *threadedCompiler) compileOp(in *dInstr, gi int32) threadOp {
	switch in.exec {
	case xBra:
		t0 := int(in.t0)
		return func(w *warpSim, _ uint32) float64 {
			w.nextPC = t0
			return 0
		}
	case xRet:
		return func(w *warpSim, active uint32) float64 {
			w.exited = active
			w.nextPC = -1
			return 0
		}
	case xCondBra:
		r := c.srcReg(in, 0)
		return func(w *warpSim, active uint32) float64 {
			cond := w.soaI(r)
			var tk, nt uint32
			for rem := active; rem != 0; rem &= rem - 1 {
				l := bits.TrailingZeros32(rem)
				if cond[l] != 0 {
					tk |= 1 << uint(l)
				} else {
					nt |= 1 << uint(l)
				}
			}
			w.brTaken |= tk
			w.brNot |= nt
			w.branched = true
			return 0
		}
	case xBar:
		// No-op under sequential warp scheduling; the timing scaffold
		// still charges its fetch and issue.
		return nil
	case xLd:
		return c.compileLoad(in, gi)
	case xSt:
		return c.compileStore(in, gi)
	case xTID:
		dst := in.dst
		return func(w *warpSim, active uint32) float64 {
			d := w.soaI(dst)
			for rem := active; rem != 0; rem &= rem - 1 {
				l := bits.TrailingZeros32(rem)
				d[l] = int64(w.lanesTID[l])
			}
			return 0
		}
	case xCTAID:
		dst := in.dst
		return func(w *warpSim, active uint32) float64 {
			d := w.soaI(dst)
			for rem := active; rem != 0; rem &= rem - 1 {
				l := bits.TrailingZeros32(rem)
				d[l] = int64(w.lanesCTA[l])
			}
			return 0
		}
	case xNTID:
		dst := in.dst
		return func(w *warpSim, active uint32) float64 {
			d := w.soaI(dst)
			v := w.ntidV
			for rem := active; rem != 0; rem &= rem - 1 {
				d[bits.TrailingZeros32(rem)] = v
			}
			return 0
		}
	case xNCTAID:
		dst := in.dst
		return func(w *warpSim, active uint32) float64 {
			d := w.soaI(dst)
			v := w.nctaidV
			for rem := active; rem != 0; rem &= rem - 1 {
				d[bits.TrailingZeros32(rem)] = v
			}
			return 0
		}
	case xMov:
		dst, s := in.dst, c.srcReg(in, 0)
		return func(w *warpSim, active uint32) float64 {
			dI, aI := w.soaI(dst), w.soaI(s)
			dF, aF := w.soaF(dst), w.soaF(s)
			if active == w.runMask {
				n := w.nLanes
				copy(dI[:n], aI[:n])
				copy(dF[:n], aF[:n])
				return 0
			}
			for rem := active; rem != 0; rem &= rem - 1 {
				l := bits.TrailingZeros32(rem)
				dI[l] = aI[l]
				dF[l] = aF[l]
			}
			return 0
		}
	case xSelp:
		dst := in.dst
		cr, s1, s2 := c.srcReg(in, 0), c.srcReg(in, 1), c.srcReg(in, 2)
		return func(w *warpSim, active uint32) float64 {
			cond := w.soaI(cr)
			aI, bI, dI := w.soaI(s1), w.soaI(s2), w.soaI(dst)
			aF, bF, dF := w.soaF(s1), w.soaF(s2), w.soaF(dst)
			for rem := active; rem != 0; rem &= rem - 1 {
				l := bits.TrailingZeros32(rem)
				if cond[l] != 0 {
					dI[l], dF[l] = aI[l], aF[l]
				} else {
					dI[l], dF[l] = bI[l], bF[l]
				}
			}
			return 0
		}
	case xSetpI:
		return c.compileSetpI(in)
	case xSetpF:
		dst, r0, r1 := in.dst, c.srcReg(in, 0), c.srcReg(in, 1)
		pred := in.pred
		return func(w *warpSim, active uint32) float64 {
			a, b, d := w.soaF(r0), w.soaF(r1), w.soaI(dst)
			for rem := active; rem != 0; rem &= rem - 1 {
				l := bits.TrailingZeros32(rem)
				d[l] = b2i(evalFCmp(pred, a[l], b[l]))
			}
			return 0
		}
	case xSExt:
		dst, s := in.dst, c.srcReg(in, 0)
		return func(w *warpSim, active uint32) float64 {
			d, a := w.soaI(dst), w.soaI(s)
			if active == w.runMask {
				copy(d[:w.nLanes], a[:w.nLanes])
				return 0
			}
			for rem := active; rem != 0; rem &= rem - 1 {
				l := bits.TrailingZeros32(rem)
				d[l] = a[l]
			}
			return 0
		}
	case xTrunc:
		dst, s, tr := in.dst, c.srcReg(in, 0), in.trunc
		return func(w *warpSim, active uint32) float64 {
			d, a := w.soaI(dst), w.soaI(s)
			if active == w.runMask {
				n := w.nLanes
				d, a := d[:n], a[:n]
				for l := range d {
					d[l] = truncTag(tr, a[l])
				}
				return 0
			}
			for rem := active; rem != 0; rem &= rem - 1 {
				l := bits.TrailingZeros32(rem)
				d[l] = truncTag(tr, a[l])
			}
			return 0
		}
	case xZExt:
		dst, s, aux := in.dst, c.srcReg(in, 0), in.aux
		return func(w *warpSim, active uint32) float64 {
			d, a := w.soaI(dst), w.soaI(s)
			if active == w.runMask {
				n := w.nLanes
				d, a := d[:n], a[:n]
				for l := range d {
					d[l] = int64(uint64(a[l]) & aux)
				}
				return 0
			}
			for rem := active; rem != 0; rem &= rem - 1 {
				l := bits.TrailingZeros32(rem)
				d[l] = int64(uint64(a[l]) & aux)
			}
			return 0
		}
	case xSIToFP:
		dst, s, rnd := in.dst, c.srcReg(in, 0), in.rndF32
		return func(w *warpSim, active uint32) float64 {
			d, a := w.soaF(dst), w.soaI(s)
			for rem := active; rem != 0; rem &= rem - 1 {
				l := bits.TrailingZeros32(rem)
				v := float64(a[l])
				if rnd {
					v = float64(float32(v))
				}
				d[l] = v
			}
			return 0
		}
	case xFPToSI:
		dst, s, tr := in.dst, c.srcReg(in, 0), in.trunc
		return func(w *warpSim, active uint32) float64 {
			d, a := w.soaI(dst), w.soaF(s)
			for rem := active; rem != 0; rem &= rem - 1 {
				l := bits.TrailingZeros32(rem)
				d[l] = evalConvI(xFPToSI, tr, 0, 0, a[l])
			}
			return 0
		}
	case xFPExt, xFPTrunc:
		dst, s, rnd := in.dst, c.srcReg(in, 0), in.rndF32
		return func(w *warpSim, active uint32) float64 {
			d, a := w.soaF(dst), w.soaF(s)
			for rem := active; rem != 0; rem &= rem - 1 {
				l := bits.TrailingZeros32(rem)
				v := a[l]
				if rnd {
					v = float64(float32(v))
				}
				d[l] = v
			}
			return 0
		}
	}
	if in.exec >= xFAdd { // tag order: float compute ops are the last group
		return c.compileFloatOp(in)
	}
	return c.compileIntOp(in)
}

// compileSetpI specializes the signed/equality predicates (the loop guards
// and if-conditions that dominate generated code); unsigned compares fall
// back to the shared kernel per lane.
func (c *threadedCompiler) compileSetpI(in *dInstr) threadOp {
	dst, r0, r1 := in.dst, c.srcReg(in, 0), c.srcReg(in, 1)
	pred, aux := in.pred, in.aux
	switch pred {
	case ir.EQ:
		return func(w *warpSim, active uint32) float64 {
			a, b, d := w.soaI(r0), w.soaI(r1), w.soaI(dst)
			if active == w.runMask {
				n := w.nLanes
				a, b, d := a[:n], b[:n], d[:n]
				for l := range d {
					d[l] = b2i(a[l] == b[l])
				}
				return 0
			}
			for rem := active; rem != 0; rem &= rem - 1 {
				l := bits.TrailingZeros32(rem)
				d[l] = b2i(a[l] == b[l])
			}
			return 0
		}
	case ir.NE:
		return func(w *warpSim, active uint32) float64 {
			a, b, d := w.soaI(r0), w.soaI(r1), w.soaI(dst)
			if active == w.runMask {
				n := w.nLanes
				a, b, d := a[:n], b[:n], d[:n]
				for l := range d {
					d[l] = b2i(a[l] != b[l])
				}
				return 0
			}
			for rem := active; rem != 0; rem &= rem - 1 {
				l := bits.TrailingZeros32(rem)
				d[l] = b2i(a[l] != b[l])
			}
			return 0
		}
	case ir.SLT:
		return func(w *warpSim, active uint32) float64 {
			a, b, d := w.soaI(r0), w.soaI(r1), w.soaI(dst)
			if active == w.runMask {
				n := w.nLanes
				a, b, d := a[:n], b[:n], d[:n]
				for l := range d {
					d[l] = b2i(a[l] < b[l])
				}
				return 0
			}
			for rem := active; rem != 0; rem &= rem - 1 {
				l := bits.TrailingZeros32(rem)
				d[l] = b2i(a[l] < b[l])
			}
			return 0
		}
	case ir.SLE:
		return func(w *warpSim, active uint32) float64 {
			a, b, d := w.soaI(r0), w.soaI(r1), w.soaI(dst)
			if active == w.runMask {
				n := w.nLanes
				a, b, d := a[:n], b[:n], d[:n]
				for l := range d {
					d[l] = b2i(a[l] <= b[l])
				}
				return 0
			}
			for rem := active; rem != 0; rem &= rem - 1 {
				l := bits.TrailingZeros32(rem)
				d[l] = b2i(a[l] <= b[l])
			}
			return 0
		}
	case ir.SGT:
		return func(w *warpSim, active uint32) float64 {
			a, b, d := w.soaI(r0), w.soaI(r1), w.soaI(dst)
			if active == w.runMask {
				n := w.nLanes
				a, b, d := a[:n], b[:n], d[:n]
				for l := range d {
					d[l] = b2i(a[l] > b[l])
				}
				return 0
			}
			for rem := active; rem != 0; rem &= rem - 1 {
				l := bits.TrailingZeros32(rem)
				d[l] = b2i(a[l] > b[l])
			}
			return 0
		}
	case ir.SGE:
		return func(w *warpSim, active uint32) float64 {
			a, b, d := w.soaI(r0), w.soaI(r1), w.soaI(dst)
			if active == w.runMask {
				n := w.nLanes
				a, b, d := a[:n], b[:n], d[:n]
				for l := range d {
					d[l] = b2i(a[l] >= b[l])
				}
				return 0
			}
			for rem := active; rem != 0; rem &= rem - 1 {
				l := bits.TrailingZeros32(rem)
				d[l] = b2i(a[l] >= b[l])
			}
			return 0
		}
	}
	return func(w *warpSim, active uint32) float64 {
		a, b, d := w.soaI(r0), w.soaI(r1), w.soaI(dst)
		for rem := active; rem != 0; rem &= rem - 1 {
			l := bits.TrailingZeros32(rem)
			d[l] = b2i(evalICmp(pred, aux, a[l], b[l]))
		}
		return 0
	}
}

// compileIntOp specializes the single-cycle integer ops; div/rem (which
// pay a 24-cycle latency anyway) share the generic kernel loop.
func (c *threadedCompiler) compileIntOp(in *dInstr) threadOp {
	dst, r0, r1 := in.dst, c.srcReg(in, 0), c.srcReg(in, 1)
	op, tr, aux := in.exec, in.trunc, in.aux
	// Full-width i64 arithmetic (the overwhelmingly common case after
	// lowering) needs no result truncation; specialize the hottest ops so
	// their inner loops carry no per-lane tag dispatch.
	if tr == tNone {
		switch op {
		case xAdd:
			return func(w *warpSim, active uint32) float64 {
				a, b, d := w.soaI(r0), w.soaI(r1), w.soaI(dst)
				if active == w.runMask {
					n := w.nLanes
					a, b, d := a[:n], b[:n], d[:n]
					for l := range d {
						d[l] = a[l] + b[l]
					}
					return 0
				}
				for rem := active; rem != 0; rem &= rem - 1 {
					l := bits.TrailingZeros32(rem)
					d[l] = a[l] + b[l]
				}
				return 0
			}
		case xSub:
			return func(w *warpSim, active uint32) float64 {
				a, b, d := w.soaI(r0), w.soaI(r1), w.soaI(dst)
				if active == w.runMask {
					n := w.nLanes
					a, b, d := a[:n], b[:n], d[:n]
					for l := range d {
						d[l] = a[l] - b[l]
					}
					return 0
				}
				for rem := active; rem != 0; rem &= rem - 1 {
					l := bits.TrailingZeros32(rem)
					d[l] = a[l] - b[l]
				}
				return 0
			}
		case xMul:
			return func(w *warpSim, active uint32) float64 {
				a, b, d := w.soaI(r0), w.soaI(r1), w.soaI(dst)
				if active == w.runMask {
					n := w.nLanes
					a, b, d := a[:n], b[:n], d[:n]
					for l := range d {
						d[l] = a[l] * b[l]
					}
					return 0
				}
				for rem := active; rem != 0; rem &= rem - 1 {
					l := bits.TrailingZeros32(rem)
					d[l] = a[l] * b[l]
				}
				return 0
			}
		case xAnd:
			return func(w *warpSim, active uint32) float64 {
				a, b, d := w.soaI(r0), w.soaI(r1), w.soaI(dst)
				if active == w.runMask {
					n := w.nLanes
					a, b, d := a[:n], b[:n], d[:n]
					for l := range d {
						d[l] = a[l] & b[l]
					}
					return 0
				}
				for rem := active; rem != 0; rem &= rem - 1 {
					l := bits.TrailingZeros32(rem)
					d[l] = a[l] & b[l]
				}
				return 0
			}
		case xOr:
			return func(w *warpSim, active uint32) float64 {
				a, b, d := w.soaI(r0), w.soaI(r1), w.soaI(dst)
				if active == w.runMask {
					n := w.nLanes
					a, b, d := a[:n], b[:n], d[:n]
					for l := range d {
						d[l] = a[l] | b[l]
					}
					return 0
				}
				for rem := active; rem != 0; rem &= rem - 1 {
					l := bits.TrailingZeros32(rem)
					d[l] = a[l] | b[l]
				}
				return 0
			}
		case xXor:
			return func(w *warpSim, active uint32) float64 {
				a, b, d := w.soaI(r0), w.soaI(r1), w.soaI(dst)
				if active == w.runMask {
					n := w.nLanes
					a, b, d := a[:n], b[:n], d[:n]
					for l := range d {
						d[l] = a[l] ^ b[l]
					}
					return 0
				}
				for rem := active; rem != 0; rem &= rem - 1 {
					l := bits.TrailingZeros32(rem)
					d[l] = a[l] ^ b[l]
				}
				return 0
			}
		}
	}
	switch op {
	case xAdd:
		return func(w *warpSim, active uint32) float64 {
			a, b, d := w.soaI(r0), w.soaI(r1), w.soaI(dst)
			if active == w.runMask {
				n := w.nLanes
				a, b, d := a[:n], b[:n], d[:n]
				for l := range d {
					d[l] = truncTag(tr, a[l]+b[l])
				}
				return 0
			}
			for rem := active; rem != 0; rem &= rem - 1 {
				l := bits.TrailingZeros32(rem)
				d[l] = truncTag(tr, a[l]+b[l])
			}
			return 0
		}
	case xSub:
		return func(w *warpSim, active uint32) float64 {
			a, b, d := w.soaI(r0), w.soaI(r1), w.soaI(dst)
			if active == w.runMask {
				n := w.nLanes
				a, b, d := a[:n], b[:n], d[:n]
				for l := range d {
					d[l] = truncTag(tr, a[l]-b[l])
				}
				return 0
			}
			for rem := active; rem != 0; rem &= rem - 1 {
				l := bits.TrailingZeros32(rem)
				d[l] = truncTag(tr, a[l]-b[l])
			}
			return 0
		}
	case xMul:
		return func(w *warpSim, active uint32) float64 {
			a, b, d := w.soaI(r0), w.soaI(r1), w.soaI(dst)
			if active == w.runMask {
				n := w.nLanes
				a, b, d := a[:n], b[:n], d[:n]
				for l := range d {
					d[l] = truncTag(tr, a[l]*b[l])
				}
				return 0
			}
			for rem := active; rem != 0; rem &= rem - 1 {
				l := bits.TrailingZeros32(rem)
				d[l] = truncTag(tr, a[l]*b[l])
			}
			return 0
		}
	case xAnd:
		return func(w *warpSim, active uint32) float64 {
			a, b, d := w.soaI(r0), w.soaI(r1), w.soaI(dst)
			if active == w.runMask {
				n := w.nLanes
				a, b, d := a[:n], b[:n], d[:n]
				for l := range d {
					d[l] = truncTag(tr, a[l]&b[l])
				}
				return 0
			}
			for rem := active; rem != 0; rem &= rem - 1 {
				l := bits.TrailingZeros32(rem)
				d[l] = truncTag(tr, a[l]&b[l])
			}
			return 0
		}
	case xOr:
		return func(w *warpSim, active uint32) float64 {
			a, b, d := w.soaI(r0), w.soaI(r1), w.soaI(dst)
			if active == w.runMask {
				n := w.nLanes
				a, b, d := a[:n], b[:n], d[:n]
				for l := range d {
					d[l] = truncTag(tr, a[l]|b[l])
				}
				return 0
			}
			for rem := active; rem != 0; rem &= rem - 1 {
				l := bits.TrailingZeros32(rem)
				d[l] = truncTag(tr, a[l]|b[l])
			}
			return 0
		}
	case xXor:
		return func(w *warpSim, active uint32) float64 {
			a, b, d := w.soaI(r0), w.soaI(r1), w.soaI(dst)
			if active == w.runMask {
				n := w.nLanes
				a, b, d := a[:n], b[:n], d[:n]
				for l := range d {
					d[l] = truncTag(tr, a[l]^b[l])
				}
				return 0
			}
			for rem := active; rem != 0; rem &= rem - 1 {
				l := bits.TrailingZeros32(rem)
				d[l] = truncTag(tr, a[l]^b[l])
			}
			return 0
		}
	case xShl:
		return func(w *warpSim, active uint32) float64 {
			a, b, d := w.soaI(r0), w.soaI(r1), w.soaI(dst)
			if active == w.runMask {
				n := w.nLanes
				a, b, d := a[:n], b[:n], d[:n]
				for l := range d {
					d[l] = truncTag(tr, a[l]<<(uint64(b[l])&aux))
				}
				return 0
			}
			for rem := active; rem != 0; rem &= rem - 1 {
				l := bits.TrailingZeros32(rem)
				d[l] = truncTag(tr, a[l]<<(uint64(b[l])&aux))
			}
			return 0
		}
	case xAShr:
		return func(w *warpSim, active uint32) float64 {
			a, b, d := w.soaI(r0), w.soaI(r1), w.soaI(dst)
			if active == w.runMask {
				n := w.nLanes
				a, b, d := a[:n], b[:n], d[:n]
				for l := range d {
					d[l] = truncTag(tr, a[l]>>(uint64(b[l])&aux))
				}
				return 0
			}
			for rem := active; rem != 0; rem &= rem - 1 {
				l := bits.TrailingZeros32(rem)
				d[l] = truncTag(tr, a[l]>>(uint64(b[l])&aux))
			}
			return 0
		}
	case xLShr:
		return func(w *warpSim, active uint32) float64 {
			a, b, d := w.soaI(r0), w.soaI(r1), w.soaI(dst)
			if active == w.runMask {
				n := w.nLanes
				a, b, d := a[:n], b[:n], d[:n]
				for l := range d {
					d[l] = truncTag(tr, int64(toUTag(tr, a[l])>>(uint64(b[l])&aux)))
				}
				return 0
			}
			for rem := active; rem != 0; rem &= rem - 1 {
				l := bits.TrailingZeros32(rem)
				d[l] = truncTag(tr, int64(toUTag(tr, a[l])>>(uint64(b[l])&aux)))
			}
			return 0
		}
	case xSMin:
		return func(w *warpSim, active uint32) float64 {
			a, b, d := w.soaI(r0), w.soaI(r1), w.soaI(dst)
			if active == w.runMask {
				n := w.nLanes
				a, b, d := a[:n], b[:n], d[:n]
				for l := range d {
					d[l] = truncTag(tr, min(a[l], b[l]))
				}
				return 0
			}
			for rem := active; rem != 0; rem &= rem - 1 {
				l := bits.TrailingZeros32(rem)
				d[l] = truncTag(tr, min(a[l], b[l]))
			}
			return 0
		}
	case xSMax:
		return func(w *warpSim, active uint32) float64 {
			a, b, d := w.soaI(r0), w.soaI(r1), w.soaI(dst)
			if active == w.runMask {
				n := w.nLanes
				a, b, d := a[:n], b[:n], d[:n]
				for l := range d {
					d[l] = truncTag(tr, max(a[l], b[l]))
				}
				return 0
			}
			for rem := active; rem != 0; rem &= rem - 1 {
				l := bits.TrailingZeros32(rem)
				d[l] = truncTag(tr, max(a[l], b[l]))
			}
			return 0
		}
	}
	return func(w *warpSim, active uint32) float64 {
		a, b, d := w.soaI(r0), w.soaI(r1), w.soaI(dst)
		for rem := active; rem != 0; rem &= rem - 1 {
			l := bits.TrailingZeros32(rem)
			d[l] = evalIntOp(op, tr, aux, a[l], b[l])
		}
		return 0
	}
}

// compileFloatOp specializes the pipelined float ops; transcendentals
// (dominated by the math call) share the generic kernel loop.
func (c *threadedCompiler) compileFloatOp(in *dInstr) threadOp {
	dst, r0, r1 := in.dst, c.srcReg(in, 0), c.srcReg(in, 1)
	op, rnd := in.exec, in.rndF32
	switch op {
	case xFAdd:
		return func(w *warpSim, active uint32) float64 {
			a, b, d := w.soaF(r0), w.soaF(r1), w.soaF(dst)
			if active == w.runMask {
				n := w.nLanes
				a, b, d := a[:n], b[:n], d[:n]
				if rnd {
					for l := range d {
						d[l] = float64(float32(a[l] + b[l]))
					}
				} else {
					for l := range d {
						d[l] = a[l] + b[l]
					}
				}
				return 0
			}
			for rem := active; rem != 0; rem &= rem - 1 {
				l := bits.TrailingZeros32(rem)
				r := a[l] + b[l]
				if rnd {
					r = float64(float32(r))
				}
				d[l] = r
			}
			return 0
		}
	case xFSub:
		return func(w *warpSim, active uint32) float64 {
			a, b, d := w.soaF(r0), w.soaF(r1), w.soaF(dst)
			if active == w.runMask {
				n := w.nLanes
				a, b, d := a[:n], b[:n], d[:n]
				if rnd {
					for l := range d {
						d[l] = float64(float32(a[l] - b[l]))
					}
				} else {
					for l := range d {
						d[l] = a[l] - b[l]
					}
				}
				return 0
			}
			for rem := active; rem != 0; rem &= rem - 1 {
				l := bits.TrailingZeros32(rem)
				r := a[l] - b[l]
				if rnd {
					r = float64(float32(r))
				}
				d[l] = r
			}
			return 0
		}
	case xFMul:
		return func(w *warpSim, active uint32) float64 {
			a, b, d := w.soaF(r0), w.soaF(r1), w.soaF(dst)
			if active == w.runMask {
				n := w.nLanes
				a, b, d := a[:n], b[:n], d[:n]
				if rnd {
					for l := range d {
						d[l] = float64(float32(a[l] * b[l]))
					}
				} else {
					for l := range d {
						d[l] = a[l] * b[l]
					}
				}
				return 0
			}
			for rem := active; rem != 0; rem &= rem - 1 {
				l := bits.TrailingZeros32(rem)
				r := a[l] * b[l]
				if rnd {
					r = float64(float32(r))
				}
				d[l] = r
			}
			return 0
		}
	case xFDiv:
		return func(w *warpSim, active uint32) float64 {
			a, b, d := w.soaF(r0), w.soaF(r1), w.soaF(dst)
			if active == w.runMask {
				n := w.nLanes
				a, b, d := a[:n], b[:n], d[:n]
				if rnd {
					for l := range d {
						d[l] = float64(float32(a[l] / b[l]))
					}
				} else {
					for l := range d {
						d[l] = a[l] / b[l]
					}
				}
				return 0
			}
			for rem := active; rem != 0; rem &= rem - 1 {
				l := bits.TrailingZeros32(rem)
				r := a[l] / b[l]
				if rnd {
					r = float64(float32(r))
				}
				d[l] = r
			}
			return 0
		}
	}
	return func(w *warpSim, active uint32) float64 {
		a, b, d := w.soaF(r0), w.soaF(r1), w.soaF(dst)
		for rem := active; rem != 0; rem &= rem - 1 {
			l := bits.TrailingZeros32(rem)
			d[l] = evalFloatOp(op, rnd, a[l], b[l])
		}
		return 0
	}
}

// gatherAddrsSoA copies register r's active lanes into addrBuf, in lane
// order, and returns how many there are (the operand is always a register
// — immediates are pooled).
func (w *warpSim) gatherAddrsSoA(active uint32, r int32) int {
	a := w.soaI(r)
	if active == w.runMask {
		n := w.nLanes
		copy(w.addrBuf[:n], a[:n])
		return n
	}
	n := 0
	for rem := active; rem != 0; rem &= rem - 1 {
		w.addrBuf[n] = a[bits.TrailingZeros32(rem)]
		n++
	}
	return n
}

// loadFault records the out-of-bounds error the typed Load path reports
// for this address; the block loop surfaces it after the closure returns.
func (w *warpSim) loadFault(typ *ir.Type, addr int64) {
	if _, err := w.mem.Load(typ, addr); err != nil {
		w.memErr = err
	} else {
		w.memErr = fmt.Errorf("interp: load of unsupported kind at addr=%d", addr)
	}
}

func (w *warpSim) storeFault(typ *ir.Type, addr int64, v interp.Value) {
	if err := w.mem.Store(typ, addr, v); err != nil {
		w.memErr = err
	} else {
		w.memErr = fmt.Errorf("interp: store of unsupported kind at addr=%d", addr)
	}
}

func (c *threadedCompiler) compileLoad(in *dInstr, gi int32) threadOp {
	addr := c.srcReg(in, 0)
	dst := in.dst
	kind := ir.Kind(in.memKind)
	size := in.memSize
	typ := in.typ
	return func(w *warpSim, active uint32) float64 {
		n := w.gatherAddrsSoA(active, addr)
		cost, ntx := w.access(n, size, true, w.m)
		if w.prof != nil {
			w.prof.Counters[ProfMemTransactions][gi] += ntx
			w.prof.Counters[ProfMemIdeal][gi] += idealTransactions(n, size, w.cfg.SegmentBytes)
		}
		ai := 0
		switch kind {
		case ir.KindF64:
			data := w.mem.Data
			d := w.soaF(dst)
			for rem := active; rem != 0; rem &= rem - 1 {
				l := bits.TrailingZeros32(rem)
				a := w.addrBuf[ai]
				ai++
				if a < 0 || a+8 > int64(len(data)) {
					w.loadFault(typ, a)
					return cost
				}
				d[l] = math.Float64frombits(binary.LittleEndian.Uint64(data[a:]))
			}
		case ir.KindI64, ir.KindPtr:
			data := w.mem.Data
			d := w.soaI(dst)
			for rem := active; rem != 0; rem &= rem - 1 {
				l := bits.TrailingZeros32(rem)
				a := w.addrBuf[ai]
				ai++
				if a < 0 || a+8 > int64(len(data)) {
					w.loadFault(typ, a)
					return cost
				}
				d[l] = int64(binary.LittleEndian.Uint64(data[a:]))
			}
		default:
			dI, dF := w.soaI(dst), w.soaF(dst)
			for rem := active; rem != 0; rem &= rem - 1 {
				l := bits.TrailingZeros32(rem)
				a := w.addrBuf[ai]
				ai++
				v, ok := w.mem.LoadKind(kind, size, a)
				if !ok {
					w.loadFault(typ, a)
					return cost
				}
				dI[l], dF[l] = v.I, v.F
			}
		}
		return cost
	}
}

func (c *threadedCompiler) compileStore(in *dInstr, gi int32) threadOp {
	val := c.srcReg(in, 0)
	addr := c.srcReg(in, 1)
	kind := ir.Kind(in.memKind)
	size := in.memSize
	typ := in.typ
	return func(w *warpSim, active uint32) float64 {
		n := w.gatherAddrsSoA(active, addr)
		cost, ntx := w.access(n, size, false, w.m)
		if w.prof != nil {
			w.prof.Counters[ProfMemTransactions][gi] += ntx
			w.prof.Counters[ProfMemIdeal][gi] += idealTransactions(n, size, w.cfg.SegmentBytes)
		}
		ai := 0
		if kind == ir.KindF64 {
			data := w.mem.Data
			v := w.soaF(val)
			for rem := active; rem != 0; rem &= rem - 1 {
				l := bits.TrailingZeros32(rem)
				a := w.addrBuf[ai]
				ai++
				if a < 0 || a+8 > int64(len(data)) {
					w.storeFault(typ, a, interp.FloatVal(v[l]))
					return cost
				}
				binary.LittleEndian.PutUint64(data[a:], math.Float64bits(v[l]))
			}
			return cost
		}
		vI, vF := w.soaI(val), w.soaF(val)
		for rem := active; rem != 0; rem &= rem - 1 {
			l := bits.TrailingZeros32(rem)
			a := w.addrBuf[ai]
			ai++
			v := interp.Value{I: vI[l], F: vF[l]}
			if !w.mem.StoreKind(kind, size, a, v) {
				w.storeFault(typ, a, v)
				return cost
			}
		}
		return cost
	}
}

// runThreaded executes one warp: count threads starting at firstThread. The
// steady-state path performs no heap allocations — all per-warp state lives
// in buffers sized by init (a policy engine's stack may grow once on
// unusually deep divergence, then keeps its capacity).
func (w *warpSim) runThreaded(args []interp.Value, launch Launch, firstThread, count int, m *Metrics) error {
	cfg := w.cfg
	dp := w.dp
	tp := w.tp
	W := w.laneW
	prof := w.prof
	// Reset the real registers (the pooled immediates above them are
	// filled once by init and never written).
	clearI := w.regsI[:dp.numRegs*W]
	for i := range clearI {
		clearI[i] = 0
	}
	clearF := w.regsF[:dp.numRegs*W]
	for i := range clearF {
		clearF[i] = 0
	}
	for pi, r := range dp.paramRegs {
		base := int(r) * W
		v := args[pi]
		for lane := 0; lane < count; lane++ {
			w.regsI[base+lane] = v.I
			w.regsF[base+lane] = v.F
		}
	}
	for lane := 0; lane < count; lane++ {
		gid := firstThread + lane
		w.lanesTID[lane] = int32(gid % launch.BlockDim)
		w.lanesCTA[lane] = int32(gid / launch.BlockDim)
	}
	for i := range w.ready {
		w.ready[i] = 0
	}
	// 32 here is the mask word width, not the warp size: count is at most
	// cfg.WarpSize, so narrow-warp devices (WarpSize < 32) always take the
	// partial-mask path and full warps on them get exactly WarpSize bits.
	fullMask := ^uint32(0)
	if count < 32 {
		fullMask = 1<<uint(count) - 1
	}
	w.runMask = fullMask
	w.nLanes = count
	w.ntidV = int64(launch.BlockDim)
	w.nctaidV = int64(launch.GridDim)
	w.m = m
	w.memErr = nil

	eng := w.eng
	eng.reset(prof, fullMask)
	var steps int64
	budget := cfg.MaxWarpSteps
	if budget <= 0 {
		budget = MaxWarpSteps
	}
	var cycles float64   // warp issue clock
	var stallAcc float64 // exposed dependency stalls (metrics only)
	ops, tim := tp.ops, tp.tim
	ready := w.ready
	lines := w.lines
	blockSeen := w.blockSeen
	for {
		blkIdx, active, ok := eng.next()
		if !ok {
			break
		}
		if w.canceled() {
			return w.cancelErr(steps)
		}
		start, end := dp.blockStart[blkIdx], dp.blockEnd[blkIdx]
		nActive := bits.OnesCount32(active)
		iss := w.scale[nActive]
		w.nextPC = -2
		w.branched = false
		w.exited, w.brTaken, w.brNot = 0, 0, 0
		nb := int64(end - start)
		if prof == nil && blockSeen[blkIdx] && steps+nb <= budget {
			// Steady-state fast loop. Every line of this block is already
			// resident (bitset mode never evicts), the step budget cannot
			// trip mid-block, and there is no profile to feed — so the
			// fetch, budget, and profile branches of the full loop below
			// all provably no-op and the warp clock advances through the
			// identical float sequence with none of them in the way.
			steps += nb
			for gi := start; gi < end; gi++ {
				t := &tim[gi]
				dep := 0.0
				for _, r := range t.srcs {
					if r >= 0 {
						if rt := ready[r]; rt > dep {
							dep = rt
						}
					}
				}
				if stall := dep - cycles; stall > 0 {
					exposed := stall * cfg.StallExposure * iss
					cycles += exposed
					stallAcc += exposed
				}
				cycles += t.issue * iss
				if t.dst >= 0 {
					ready[t.dst] = cycles + w.latTab[t.latClass]
				}
				if fn := ops[gi]; fn != nil {
					cycles += fn(w, active)
					if w.memErr != nil {
						return fmt.Errorf("gpusim: %s: %w", dp.name, w.memErr)
					}
				}
			}
		} else {
			for gi := start; gi < end; gi++ {
				steps++
				if steps > budget {
					return fmt.Errorf("gpusim: %s after %d steps: %w", dp.name, steps-1, ErrCycleBudget)
				}
				var fc int64
				if line := lines[gi]; w.fetchMode == fetchBitset {
					word, bit := line>>6, uint64(1)<<uint(line&63)
					if w.touched[word]&bit == 0 {
						w.touched[word] |= bit
						fc = cfg.ICacheMissCycles
					}
				} else if w.lru.fetch(line) {
					fc = cfg.ICacheMissCycles
				}
				if fc != 0 {
					m.StallInstFetch += fc
					cycles += float64(fc)
					if prof != nil {
						prof.Counters[ProfFetchStall][gi] += fc
					}
				}
				t := &tim[gi]
				dep := 0.0
				for _, r := range t.srcs {
					if r >= 0 {
						if rt := ready[r]; rt > dep {
							dep = rt
						}
					}
				}
				if stall := dep - cycles; stall > 0 {
					exposed := stall * cfg.StallExposure * iss
					cycles += exposed
					stallAcc += exposed
					if prof != nil {
						prof.Counters[ProfDepStall][gi] += profFP(exposed)
					}
				}
				cycles += t.issue * iss
				if prof != nil {
					prof.Counters[ProfIssueCycles][gi] += profFP(t.issue * iss)
				}
				if t.dst >= 0 {
					ready[t.dst] = cycles + w.latTab[t.latClass]
				}
				if fn := ops[gi]; fn != nil {
					cycles += fn(w, active)
					if w.memErr != nil {
						return fmt.Errorf("gpusim: %s: %w", dp.name, w.memErr)
					}
				}
			}
			if w.fetchMode == fetchBitset {
				blockSeen[blkIdx] = true
			}
		}
		// Bulk block accounting: these counters are integers, so the
		// per-block sums equal per-instruction sums exactly.
		m.WarpInstrs += nb
		m.ActiveSum += nb * int64(nActive)
		m.ThreadInstrs += nb * int64(nActive)
		for cl, k := range &tp.blocks[blkIdx].classThread {
			if k != 0 {
				m.ClassThread[cl] += int64(k) * int64(nActive)
			}
		}
		if prof != nil {
			we := prof.Counters[ProfWarpExecs]
			te := prof.Counters[ProfThreadExecs]
			na := int64(nActive)
			for gi := start; gi < end; gi++ {
				we[gi]++
				te[gi] += na
			}
		}
		switch {
		case w.nextPC == -1: // ret
			eng.retire(w.exited)
		case w.branched:
			eng.branch(blkIdx, w.brTaken, w.brNot)
		default:
			eng.jump(w.nextPC)
		}
	}
	m.Cycles += int64(cycles + 0.5)
	m.DepStallCycles += int64(stallAcc + 0.5)
	return nil
}

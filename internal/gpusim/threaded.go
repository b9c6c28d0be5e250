package gpusim

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"uu/internal/codegen"
	"uu/internal/interp"
	"uu/internal/ir"
)

// This file is the simulator's execution core, a threaded-code design, and
// its decoder. compileOp reads each codegen.Instr once, as decode.go lays the
// program out, and compiles it straight into an array of closures — one
// specialized Go function per instruction — that operate on
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
// update, memory cost — whose order the golden corpora pin. Only the ops
// that carry the suite's traffic get a closure of their own, most with a
// full-warp fast loop: untruncated add, sub, mul, and and shl, the signed
// and equality integer compares, the four pipelined float ops, mov and
// selp. Every other compute, compare and conversion op runs one generic
// per-lane loop over the shared kernels of ops.go; a specialization earns
// its place only by measurably speeding up a BenchmarkWarpSim case whose
// hot loop runs it (EXPERIMENTS.md, "What each specialized closure pays
// for").
// Immediates are pooled into broadcast pseudo-registers past dp.numRegs so
// every closure reads plain register lanes. The compile switch and the
// closures it builds are the only place the simulator branches on an opcode
// outside timingOf and the ops.go kernels; nothing in between re-encodes
// the instruction. The design this replaced — one dispatch switch per
// retired instruction over boxed interp.Value registers, every scalar op
// through the ops.go kernels — is kept as the differential reference in
// refcore_test.go, which reads each codegen.Instr itself and is what holds
// the specialized closures below to the plain definition of each opcode.

// threadOp executes one compiled instruction for the active lanes and
// returns the memory bandwidth cycles it adds to the warp clock (0 for
// everything but ld/st, which is float-exact to add). Closures capture
// only decode-time constants; all run state lives on the warpSim.
type threadOp func(w *warpSim, active uint32) float64

// tTiming is the compact per-instruction record the timing scaffold reads:
// issue cost, scoreboard sources (the original register operands — pooled
// immediates carry no dependency), destination, and latency class.
type tTiming struct {
	issue    float64
	srcs     [3]int32
	dst      int32
	latClass uint8
}

// constKey identifies a pooled immediate by exact bits: float keys go
// through Float64bits so -0.0 and 0.0 (map-equal, bit-distinct) do not
// alias one pool slot.
type constKey struct {
	i int64
	f uint64
}

// compiler builds a decodedProgram's closures, timing records and class
// counts, one instruction at a time, pooling immediates as it goes.
type compiler struct {
	dp   *decodedProgram
	pool map[constKey]int32
}

// constReg returns the pseudo-register broadcasting v to every lane.
func (c *compiler) constReg(v interp.Value) int32 {
	k := constKey{v.I, math.Float64bits(v.F)}
	if r, ok := c.pool[k]; ok {
		return r
	}
	r := int32(c.dp.fileRegs())
	c.dp.consts = append(c.dp.consts, v)
	c.pool[k] = r
	return r
}

// src resolves operand i of in to an SoA register index: the instruction's
// register, a pooled immediate, or (past its last operand) the zero
// constant the scalar kernels default absent operands to.
func (c *compiler) src(in *codegen.Instr, i int) int32 {
	if i >= len(in.Srcs) {
		return c.constReg(interp.Value{})
	}
	s := in.Srcs[i]
	if !s.IsImm() {
		return int32(s.Reg)
	}
	k := s.Imm
	if k.Typ.IsFloat() {
		return c.constReg(interp.FloatVal(k.Float))
	}
	return c.constReg(interp.IntVal(k.Int))
}

// add compiles in, the instruction at global index gi in block bi: its
// timing record, its closure and its block's class count.
func (c *compiler) add(in *codegen.Instr, gi int32, bi int) error {
	if len(in.Srcs) > 3 {
		return fmt.Errorf("%w: %d operands", ErrDecode, len(in.Srcs))
	}
	if in.Dst < codegen.NoReg || int(in.Dst) >= c.dp.numRegs {
		return fmt.Errorf("%w: destination %%r%d outside the program's %d registers", ErrDecode, in.Dst, c.dp.numRegs)
	}
	issue, lat := timingOf(in)
	t := tTiming{issue: issue, dst: int32(in.Dst), latClass: lat, srcs: [3]int32{-1, -1, -1}}
	for i, s := range in.Srcs {
		if !s.IsImm() {
			t.srcs[i] = int32(s.Reg)
		}
	}
	op, err := c.compileOp(in, gi)
	if err != nil {
		return err
	}
	c.dp.tim[gi] = t
	c.dp.ops[gi] = op
	c.dp.blockClass[bi][in.Class()]++
	return nil
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

// compileOp decodes one instruction straight into its closure: it switches
// on the VPTX kind, then on the IR opcode, and captures every fact the
// closure reads. A nil closure (bar) has only its timing. Control-flow ops
// record their outcome on the warpSim — a mid-block branch included, which
// takes effect when the block ends — and the block loop hands it to the
// divergence policy after the block's last instruction.
func (c *compiler) compileOp(in *codegen.Instr, gi int32) (threadOp, error) {
	dst := int32(in.Dst)
	switch in.Kind {
	case codegen.KBra:
		t0 := int(in.Targets[0])
		return func(w *warpSim, _ uint32) float64 {
			w.nextPC = t0
			return 0
		}, nil
	case codegen.KRet:
		return func(w *warpSim, active uint32) float64 {
			w.exited = active
			w.nextPC = -1
			return 0
		}, nil
	case codegen.KCondBra:
		r := c.src(in, 0)
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
		}, nil
	case codegen.KBar:
		// No-op under sequential warp scheduling; the timing scaffold
		// still charges its fetch and issue.
		return nil, nil
	case codegen.KLd:
		return c.compileLoad(in, gi), nil
	case codegen.KSt:
		return c.compileStore(in, gi), nil
	case codegen.KSpecial:
		switch in.IROp {
		case ir.OpTID:
			return func(w *warpSim, active uint32) float64 {
				d := w.soaI(dst)
				for rem := active; rem != 0; rem &= rem - 1 {
					l := bits.TrailingZeros32(rem)
					d[l] = int64(w.lanesTID[l])
				}
				return 0
			}, nil
		case ir.OpCTAID:
			return func(w *warpSim, active uint32) float64 {
				d := w.soaI(dst)
				for rem := active; rem != 0; rem &= rem - 1 {
					l := bits.TrailingZeros32(rem)
					d[l] = int64(w.lanesCTA[l])
				}
				return 0
			}, nil
		case ir.OpNTID:
			return func(w *warpSim, active uint32) float64 {
				d := w.soaI(dst)
				v := w.ntidV
				for rem := active; rem != 0; rem &= rem - 1 {
					d[bits.TrailingZeros32(rem)] = v
				}
				return 0
			}, nil
		case ir.OpNCTAID:
			return func(w *warpSim, active uint32) float64 {
				d := w.soaI(dst)
				v := w.nctaidV
				for rem := active; rem != 0; rem &= rem - 1 {
					d[bits.TrailingZeros32(rem)] = v
				}
				return 0
			}, nil
		}
		return nil, fmt.Errorf("%w: bad special register %s", ErrDecode, in.IROp)
	case codegen.KMov:
		s := c.src(in, 0)
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
		}, nil
	case codegen.KSelp:
		cr, s1, s2 := c.src(in, 0), c.src(in, 1), c.src(in, 2)
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
		}, nil
	case codegen.KSetp:
		if in.IROp == ir.OpICmp {
			return c.compileSetpI(in), nil
		}
		r0, r1, pred := c.src(in, 0), c.src(in, 1), in.Pred
		return func(w *warpSim, active uint32) float64 {
			a, b, d := w.soaF(r0), w.soaF(r1), w.soaI(dst)
			for rem := active; rem != 0; rem &= rem - 1 {
				l := bits.TrailingZeros32(rem)
				d[l] = b2i(evalFCmp(pred, a[l], b[l]))
			}
			return 0
		}, nil
	case codegen.KCvt:
		return c.compileCvt(in)
	case codegen.KCompute:
		if in.Type.IsFloat() {
			return c.compileFloatOp(in)
		}
		return c.compileIntOp(in)
	}
	return nil, fmt.Errorf("%w: unhandled instruction kind %d", ErrDecode, in.Kind)
}

// compileCvt builds a conversion's per-lane loop over the shared kernels.
// The result is truncated to, or rounded to, the destination type; a zext
// masks its operand to the recorded source width.
func (c *compiler) compileCvt(in *codegen.Instr) (threadOp, error) {
	dst, s, op := int32(in.Dst), c.src(in, 0), in.IROp
	switch op {
	case ir.OpTrunc, ir.OpZExt, ir.OpSExt, ir.OpFPToSI:
		var aux uint64
		if op == ir.OpZExt {
			if in.SrcType == nil {
				return nil, fmt.Errorf("%w: zext without a recorded source type", ErrDecode)
			}
			aux = uMask(in.SrcType)
		}
		k := in.Type.Kind
		return func(w *warpSim, active uint32) float64 {
			aI, aF, d := w.soaI(s), w.soaF(s), w.soaI(dst)
			for rem := active; rem != 0; rem &= rem - 1 {
				l := bits.TrailingZeros32(rem)
				d[l] = evalConvI(op, k, aux, aI[l], aF[l])
			}
			return 0
		}, nil
	case ir.OpSIToFP, ir.OpFPExt, ir.OpFPTrunc:
		rnd := in.Type == ir.F32
		return func(w *warpSim, active uint32) float64 {
			aI, aF, d := w.soaI(s), w.soaF(s), w.soaF(dst)
			for rem := active; rem != 0; rem &= rem - 1 {
				l := bits.TrailingZeros32(rem)
				d[l] = evalConvF(op, rnd, aI[l], aF[l])
			}
			return 0
		}, nil
	}
	return nil, fmt.Errorf("%w: bad conversion %s", ErrDecode, op)
}

// compileSetpI specializes eq, ne, slt and sle (the loop guards and
// if-conditions that dominate generated code) and runs sgt and sge as slt
// and sle with their sources swapped; unsigned compares fall back to the
// shared kernel per lane.
func (c *compiler) compileSetpI(in *codegen.Instr) threadOp {
	// The compare reads operands of in.Type (the *source* type); unsigned
	// predicates zero-extend through aux.
	dst, r0, r1 := int32(in.Dst), c.src(in, 0), c.src(in, 1)
	pred, aux := in.Pred, uMask(in.Type)
	if pred == ir.SGT || pred == ir.SGE { // a > b is b < a
		pred, r0, r1 = pred.Swapped(), r1, r0
	}
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

// compileIntOp specializes the untruncated add, sub, mul, and and shl —
// a quarter of the suite's thread-instructions, its address arithmetic,
// masks and loop counters among them. Every other integer op, and every
// truncated one, shares the generic kernel loop.
func (c *compiler) compileIntOp(in *codegen.Instr) (threadOp, error) {
	dst, r0, r1 := int32(in.Dst), c.src(in, 0), c.src(in, 1)
	op, k := in.IROp, in.Type.Kind
	var aux uint64 // a shift's amount mask
	switch op {
	case ir.OpShl, ir.OpLShr, ir.OpAShr:
		aux = uint64(in.Type.Bits() - 1)
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpSDiv, ir.OpUDiv, ir.OpSRem, ir.OpURem,
		ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpSMin, ir.OpSMax:
	default:
		return nil, fmt.Errorf("%w: bad int op %s", ErrDecode, op)
	}
	if uMask(in.Type) == math.MaxUint64 { // untruncated
		switch op {
		case ir.OpAdd:
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
			}, nil
		case ir.OpSub:
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
			}, nil
		case ir.OpMul:
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
			}, nil
		case ir.OpAnd:
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
			}, nil
		case ir.OpShl:
			return func(w *warpSim, active uint32) float64 {
				a, b, d := w.soaI(r0), w.soaI(r1), w.soaI(dst)
				if active == w.runMask {
					n := w.nLanes
					a, b, d := a[:n], b[:n], d[:n]
					for l := range d {
						d[l] = a[l] << (uint64(b[l]) & aux)
					}
					return 0
				}
				for rem := active; rem != 0; rem &= rem - 1 {
					l := bits.TrailingZeros32(rem)
					d[l] = a[l] << (uint64(b[l]) & aux)
				}
				return 0
			}, nil
		}
	}
	return func(w *warpSim, active uint32) float64 {
		a, b, d := w.soaI(r0), w.soaI(r1), w.soaI(dst)
		for rem := active; rem != 0; rem &= rem - 1 {
			l := bits.TrailingZeros32(rem)
			d[l] = evalIntOp(op, k, aux, a[l], b[l])
		}
		return 0
	}, nil
}

// compileFloatOp specializes the pipelined float ops; transcendentals
// (dominated by the math call) share the generic kernel loop.
func (c *compiler) compileFloatOp(in *codegen.Instr) (threadOp, error) {
	dst, r0, r1 := int32(in.Dst), c.src(in, 0), c.src(in, 1)
	op, rnd := in.IROp, in.Type == ir.F32
	switch op {
	case ir.OpFAdd:
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
		}, nil
	case ir.OpFSub:
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
		}, nil
	case ir.OpFMul:
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
		}, nil
	case ir.OpFDiv:
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
		}, nil
	case ir.OpPow, ir.OpFMin, ir.OpFMax, ir.OpSqrt, ir.OpFAbs, ir.OpExp, ir.OpLog,
		ir.OpSin, ir.OpCos, ir.OpFloor:
		// the generic kernel loop below
	default:
		return nil, fmt.Errorf("%w: bad float op %s", ErrDecode, op)
	}
	return func(w *warpSim, active uint32) float64 {
		a, b, d := w.soaF(r0), w.soaF(r1), w.soaF(dst)
		for rem := active; rem != 0; rem &= rem - 1 {
			l := bits.TrailingZeros32(rem)
			d[l] = evalFloatOp(op, rnd, a[l], b[l])
		}
		return 0
	}, nil
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

func (c *compiler) compileLoad(in *codegen.Instr, gi int32) threadOp {
	addr := c.src(in, 0)
	dst := int32(in.Dst)
	typ := in.Type
	kind, size := typ.Kind, typ.Size()
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
				if a < 0 || a > int64(len(data))-8 { // a+8 could wrap
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
				if a < 0 || a > int64(len(data))-8 { // a+8 could wrap
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

func (c *compiler) compileStore(in *codegen.Instr, gi int32) threadOp {
	val := c.src(in, 0)
	addr := c.src(in, 1)
	typ := in.Type
	kind, size := typ.Kind, typ.Size()
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
				if a < 0 || a > int64(len(data))-8 { // a+8 could wrap
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
	ops, tim := dp.ops, dp.tim
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
		for cl, k := range &dp.blockClass[blkIdx] {
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

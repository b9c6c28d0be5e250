package gpusim

import (
	"fmt"
	"math/bits"

	"uu/internal/codegen"
	"uu/internal/interp"
	"uu/internal/ir"
)

// This file keeps the executor threaded.go replaced — one trip through a
// dispatch switch per retired warp instruction, over a boxed interp.Value
// register file — as the reference the differential tests
// (TestExecutorDifferential, TestExecutorDifferentialFuzz in diff_test.go)
// hold the production core to. It is stripped to the plain definition of the
// machine: every counter is charged per instruction (no per-block bulk
// accounting, no steady-state loop), every fetch goes through one function,
// and every scalar op goes through the ops.go kernels one lane at a time.
// What it shares with the production core is what is not specialized there:
// the decoder (decodeInstr), the block layout, the policy engines, the
// coalescing model (access) and the icache state on the warpSim. Production
// keeps no decoded instruction array, so decodeInstrs builds the reference's
// own.

// refCore is the reference core's run state: a production warpSim for
// everything shared, plus the boxed register file.
type refCore struct {
	w      *warpSim
	instrs []dInstr // indexed by global instruction id
	nregs  int
	regs   []interp.Value // [lane*nregs + reg]
}

// decodeInstrs runs the production decoder over every instruction of p, in
// global instruction order.
func decodeInstrs(p *codegen.Program) ([]dInstr, error) {
	var out []dInstr
	for _, b := range p.Blocks {
		for i := range b.Instrs {
			d, err := decodeInstr(p, &b.Instrs[i])
			if err != nil {
				return nil, err
			}
			out = append(out, d)
		}
	}
	return out, nil
}

// RunReference is RunCtx (background context, no trace) on the reference
// core, for a launch RunCtx accepts.
func RunReference(p *codegen.Program, args []interp.Value, mem *interp.Memory, launch Launch, cfg DeviceConfig, prof *Profile) (*Metrics, error) {
	dp, err := decoded(p)
	if err != nil {
		return nil, err
	}
	instrs, err := decodeInstrs(p)
	if err != nil {
		return nil, err
	}
	rc := &refCore{w: newWarpSim(dp, cfg, mem), instrs: instrs, nregs: dp.numRegs}
	rc.regs = make([]interp.Value, cfg.WarpSize*dp.numRegs)
	rc.w.prof = prof
	total := launch.Threads()
	totalWarps := (total + cfg.WarpSize - 1) / cfg.WarpSize
	simWarps := totalWarps
	if launch.SampleWarps > 0 && launch.SampleWarps < totalWarps {
		simWarps = launch.SampleWarps
	}
	m := &Metrics{}
	for wi := 0; wi < simWarps; wi++ {
		first, count := warpBounds(wi, cfg.WarpSize, total)
		if err := rc.run(args, launch, first, count, m); err != nil {
			return nil, err
		}
		m.Warps++
	}
	if simWarps < totalWarps {
		k := float64(totalWarps) / float64(simWarps)
		m.Scale(k)
		if prof != nil {
			prof.Scale(k)
		}
	}
	return m, nil
}

// src reads an operand for the lane whose register block starts at base.
func (rc *refCore) src(base int, s *dSrc) interp.Value {
	if s.reg < 0 {
		return s.imm
	}
	return rc.regs[base+int(s.reg)]
}

// fetchStall is the icache model: the stall cycles fetching line costs.
func (rc *refCore) fetchStall(line int32) int64 {
	w := rc.w
	miss := false
	if w.fetchMode == fetchBitset {
		word, bit := line>>6, uint64(1)<<uint(line&63)
		miss = w.touched[word]&bit == 0
		w.touched[word] |= bit
	} else {
		miss = w.lru.fetch(line)
	}
	if miss {
		return w.cfg.ICacheMissCycles
	}
	return 0
}

// run executes one warp.
func (rc *refCore) run(args []interp.Value, launch Launch, firstThread, count int, m *Metrics) error {
	w := rc.w
	cfg, dp, nr, prof := w.cfg, w.dp, rc.nregs, w.prof
	for lane := 0; lane < count; lane++ {
		regs := rc.regs[lane*nr : lane*nr+nr]
		clear(regs)
		for pi, r := range dp.paramRegs {
			regs[r] = args[pi]
		}
		gid := firstThread + lane
		w.lanesTID[lane] = int32(gid % launch.BlockDim)
		w.lanesCTA[lane] = int32(gid / launch.BlockDim)
	}
	clear(w.ready)
	fullMask := ^uint32(0)
	if count < 32 {
		fullMask = 1<<uint(count) - 1
	}
	ntid := interp.IntVal(int64(launch.BlockDim))
	nctaid := interp.IntVal(int64(launch.GridDim))

	eng := w.eng
	eng.reset(prof, fullMask)
	var steps int64
	budget := cfg.MaxWarpSteps
	if budget <= 0 {
		budget = MaxWarpSteps
	}
	var cycles float64   // warp issue clock
	var stallAcc float64 // exposed dependency stalls (metrics only)
	for {
		blkIdx, active, ok := eng.next()
		if !ok {
			break
		}
		if w.canceled() {
			return w.cancelErr(steps)
		}
		nActive := bits.OnesCount32(active)
		iss := w.scale[nActive]
		var brTaken, brNot uint32
		branched := false
		exited := uint32(0)
		nextPC := -2
		for gi := dp.blockStart[blkIdx]; gi < dp.blockEnd[blkIdx]; gi++ {
			in := &rc.instrs[gi]
			steps++
			if steps > budget {
				return fmt.Errorf("gpusim: %s after %d steps: %w", dp.name, steps-1, ErrCycleBudget)
			}
			if fc := rc.fetchStall(w.lines[gi]); fc != 0 {
				m.StallInstFetch += fc
				cycles += float64(fc)
				if prof != nil {
					prof.Counters[ProfFetchStall][gi] += fc
				}
			}

			m.WarpInstrs++
			m.ActiveSum += int64(nActive)
			m.ThreadInstrs += int64(nActive)
			m.ClassThread[in.class] += int64(nActive)
			if prof != nil {
				prof.Counters[ProfWarpExecs][gi]++
				prof.Counters[ProfThreadExecs][gi] += int64(nActive)
			}

			// Scoreboard: charge issue plus the exposed fraction of
			// dependency stalls. Sub-warp stalls overlap with sibling paths
			// and other warps (independent thread scheduling), so they scale
			// like issue.
			dep := 0.0
			for si := uint8(0); si < in.nSrcs; si++ {
				if r := in.srcs[si].reg; r >= 0 {
					if t := w.ready[r]; t > dep {
						dep = t
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
			cycles += in.issue * iss
			if prof != nil {
				prof.Counters[ProfIssueCycles][gi] += profFP(in.issue * iss)
			}
			if in.dst >= 0 {
				w.ready[in.dst] = cycles + w.latTab[in.latClass]
			}

			dst := int(in.dst)
			switch in.exec {
			case xBra:
				nextPC = int(in.t0)
			case xRet:
				exited = active
				nextPC = -1
			case xCondBra:
				for rem := active; rem != 0; rem &= rem - 1 {
					lane := bits.TrailingZeros32(rem)
					if rc.src(lane*nr, &in.srcs[0]).I != 0 {
						brTaken |= 1 << uint(lane)
					} else {
						brNot |= 1 << uint(lane)
					}
				}
				branched = true
			case xLd, xSt:
				isLoad := in.exec == xLd
				addrSrc := &in.srcs[1]
				if isLoad {
					addrSrc = &in.srcs[0]
				}
				n := 0
				for rem := active; rem != 0; rem &= rem - 1 {
					w.addrBuf[n] = rc.src(bits.TrailingZeros32(rem)*nr, addrSrc).I
					n++
				}
				cost, ntx := w.access(n, in.memSize, isLoad, m)
				cycles += cost
				if prof != nil {
					prof.Counters[ProfMemTransactions][gi] += ntx
					prof.Counters[ProfMemIdeal][gi] += idealTransactions(n, in.memSize, cfg.SegmentBytes)
				}
				k := ir.Kind(in.memKind)
				ai := 0
				for rem := active; rem != 0; rem &= rem - 1 {
					base := bits.TrailingZeros32(rem) * nr
					addr := w.addrBuf[ai]
					ai++
					if isLoad {
						v, ok := w.mem.LoadKind(k, in.memSize, addr)
						if !ok {
							_, err := w.mem.Load(in.typ, addr)
							return fmt.Errorf("gpusim: %s: %w", dp.name, err)
						}
						rc.regs[base+dst] = v
					} else if v := rc.src(base, &in.srcs[0]); !w.mem.StoreKind(k, in.memSize, addr, v) {
						return fmt.Errorf("gpusim: %s: %w", dp.name, w.mem.Store(in.typ, addr, v))
					}
				}
			case xBar:
				// No-op under sequential warp scheduling.
			case xTID, xNTID, xCTAID, xNCTAID:
				for rem := active; rem != 0; rem &= rem - 1 {
					lane := bits.TrailingZeros32(rem)
					v := ntid
					switch in.exec {
					case xTID:
						v = interp.IntVal(int64(w.lanesTID[lane]))
					case xCTAID:
						v = interp.IntVal(int64(w.lanesCTA[lane]))
					case xNCTAID:
						v = nctaid
					}
					rc.regs[lane*nr+dst] = v
				}
			default:
				for rem := active; rem != 0; rem &= rem - 1 {
					base := bits.TrailingZeros32(rem) * nr
					rc.regs[base+dst] = rc.evalScalar(in, base)
				}
			}
		}

		switch {
		case nextPC == -1: // ret
			eng.retire(exited)
		case branched:
			eng.branch(blkIdx, brTaken, brNot)
		default:
			eng.jump(nextPC)
		}
	}
	m.Cycles += int64(cycles + 0.5)
	m.DepStallCycles += int64(stallAcc + 0.5)
	return nil
}

func boolVal(r bool) interp.Value {
	if r {
		return interp.IntVal(1)
	}
	return interp.IntVal(0)
}

// evalScalar executes a decoded compute/setp/selp/mov/cvt instruction for
// the lane whose register block starts at base. All opcode semantics live
// in the shared kernels of ops.go.
func (rc *refCore) evalScalar(in *dInstr, base int) interp.Value {
	a := rc.src(base, &in.srcs[0])
	switch in.exec {
	case xMov:
		return a
	case xSelp:
		if a.I != 0 {
			return rc.src(base, &in.srcs[1])
		}
		return rc.src(base, &in.srcs[2])
	case xSetpI:
		b := rc.src(base, &in.srcs[1])
		return boolVal(evalICmp(in.pred, in.aux, a.I, b.I))
	case xSetpF:
		b := rc.src(base, &in.srcs[1])
		return boolVal(evalFCmp(in.pred, a.F, b.F))
	case xTrunc, xZExt, xSExt, xFPToSI:
		return interp.IntVal(evalConvI(in.exec, in.trunc, in.aux, a.I, a.F))
	case xSIToFP, xFPExt, xFPTrunc:
		return interp.FloatVal(evalConvF(in.exec, in.rndF32, a.I, a.F))
	}
	if in.exec >= xFAdd { // tag order: float compute ops are the last group
		var b float64
		if in.nSrcs > 1 {
			b = rc.src(base, &in.srcs[1]).F
		}
		return interp.FloatVal(evalFloatOp(in.exec, in.rndF32, a.F, b))
	}
	var b int64
	if in.nSrcs > 1 {
		b = rc.src(base, &in.srcs[1]).I
	}
	return interp.IntVal(evalIntOp(in.exec, in.trunc, in.aux, a.I, b))
}

// evalConvF executes a float-result conversion (xSIToFP/xFPExt/xFPTrunc).
func evalConvF(op execOp, rnd bool, aI int64, aF float64) float64 {
	var r float64
	switch op {
	case xSIToFP:
		r = float64(aI)
	case xFPExt, xFPTrunc:
		r = aF
	}
	if rnd {
		r = float64(float32(r))
	}
	return r
}

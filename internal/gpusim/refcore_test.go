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
// It reads each codegen.Instr itself — kind, opcode, type and operands, on
// every execution — so it shares no decoder with the production core. What
// it does share is what is not specialized there: the block layout, the
// policy engines, the coalescing model (access), the icache state on the
// warpSim, timingOf and the ops.go kernels.

// refCore is the reference core's run state: a production warpSim for
// everything shared, plus the boxed register file.
type refCore struct {
	w      *warpSim
	instrs []*codegen.Instr // indexed by global instruction id
	nregs  int
	regs   []interp.Value // [lane*nregs + reg]
}

// RunReference is RunCtx (background context, no trace) on the reference
// core, for a launch RunCtx accepts.
func RunReference(p *codegen.Program, args []interp.Value, mem *interp.Memory, launch Launch, cfg DeviceConfig, prof *Profile) (*Metrics, error) {
	dp, err := decoded(p)
	if err != nil {
		return nil, err
	}
	var instrs []*codegen.Instr
	for _, b := range p.Blocks {
		for i := range b.Instrs {
			instrs = append(instrs, &b.Instrs[i])
		}
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

// src reads operand i of in for the lane whose register block starts at
// base; an absent operand reads as zero.
func (rc *refCore) src(base int, in *codegen.Instr, i int) interp.Value {
	if i >= len(in.Srcs) {
		return interp.Value{}
	}
	s := in.Srcs[i]
	if !s.IsImm() {
		return rc.regs[base+int(s.Reg)]
	}
	k := s.Imm
	if k.Typ.IsFloat() {
		return interp.FloatVal(k.Float)
	}
	return interp.IntVal(k.Int)
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
			in := rc.instrs[gi]
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
			m.ClassThread[in.Class()] += int64(nActive)
			if prof != nil {
				prof.Counters[ProfWarpExecs][gi]++
				prof.Counters[ProfThreadExecs][gi] += int64(nActive)
			}

			// Scoreboard: charge issue plus the exposed fraction of
			// dependency stalls. Sub-warp stalls overlap with sibling paths
			// and other warps (independent thread scheduling), so they scale
			// like issue.
			dep := 0.0
			for _, s := range in.Srcs {
				if !s.IsImm() {
					if t := w.ready[s.Reg]; t > dep {
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
			issue, lat := timingOf(in)
			cycles += issue * iss
			if prof != nil {
				prof.Counters[ProfIssueCycles][gi] += profFP(issue * iss)
			}
			dst := int(in.Dst)
			if dst >= 0 {
				w.ready[dst] = cycles + w.latTab[lat]
			}

			switch in.Kind {
			case codegen.KBra:
				nextPC = int(in.Targets[0])
			case codegen.KRet:
				exited = active
				nextPC = -1
			case codegen.KCondBra:
				for rem := active; rem != 0; rem &= rem - 1 {
					lane := bits.TrailingZeros32(rem)
					if rc.src(lane*nr, in, 0).I != 0 {
						brTaken |= 1 << uint(lane)
					} else {
						brNot |= 1 << uint(lane)
					}
				}
				branched = true
			case codegen.KLd, codegen.KSt:
				isLoad := in.Kind == codegen.KLd
				addrSrc := 1
				if isLoad {
					addrSrc = 0
				}
				n := 0
				for rem := active; rem != 0; rem &= rem - 1 {
					w.addrBuf[n] = rc.src(bits.TrailingZeros32(rem)*nr, in, addrSrc).I
					n++
				}
				size := in.Type.Size()
				cost, ntx := w.access(n, size, isLoad, m)
				cycles += cost
				if prof != nil {
					prof.Counters[ProfMemTransactions][gi] += ntx
					prof.Counters[ProfMemIdeal][gi] += idealTransactions(n, size, cfg.SegmentBytes)
				}
				k := in.Type.Kind
				ai := 0
				for rem := active; rem != 0; rem &= rem - 1 {
					base := bits.TrailingZeros32(rem) * nr
					addr := w.addrBuf[ai]
					ai++
					if isLoad {
						v, ok := w.mem.LoadKind(k, size, addr)
						if !ok {
							_, err := w.mem.Load(in.Type, addr)
							return fmt.Errorf("gpusim: %s: %w", dp.name, err)
						}
						rc.regs[base+dst] = v
					} else if v := rc.src(base, in, 0); !w.mem.StoreKind(k, size, addr, v) {
						return fmt.Errorf("gpusim: %s: %w", dp.name, w.mem.Store(in.Type, addr, v))
					}
				}
			case codegen.KBar:
				// No-op under sequential warp scheduling.
			case codegen.KSpecial:
				for rem := active; rem != 0; rem &= rem - 1 {
					lane := bits.TrailingZeros32(rem)
					v := ntid
					switch in.IROp {
					case ir.OpTID:
						v = interp.IntVal(int64(w.lanesTID[lane]))
					case ir.OpCTAID:
						v = interp.IntVal(int64(w.lanesCTA[lane]))
					case ir.OpNCTAID:
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

// evalScalar executes a compute/setp/selp/mov/cvt instruction for the lane
// whose register block starts at base. All opcode semantics live in the
// shared kernels of ops.go.
func (rc *refCore) evalScalar(in *codegen.Instr, base int) interp.Value {
	a, b := rc.src(base, in, 0), rc.src(base, in, 1)
	switch in.Kind {
	case codegen.KMov:
		return a
	case codegen.KSelp:
		if a.I != 0 {
			return b
		}
		return rc.src(base, in, 2)
	case codegen.KSetp:
		if in.IROp == ir.OpICmp {
			return boolVal(evalICmp(in.Pred, uMask(in.Type), a.I, b.I))
		}
		return boolVal(evalFCmp(in.Pred, a.F, b.F))
	case codegen.KCvt:
		switch in.IROp {
		case ir.OpSIToFP, ir.OpFPExt, ir.OpFPTrunc:
			return interp.FloatVal(evalConvF(in.IROp, in.Type == ir.F32, a.I, a.F))
		case ir.OpZExt:
			return interp.IntVal(evalConvI(in.IROp, in.Type.Kind, uMask(in.SrcType), a.I, a.F))
		}
		return interp.IntVal(evalConvI(in.IROp, in.Type.Kind, 0, a.I, a.F))
	}
	if in.Type.IsFloat() {
		return interp.FloatVal(evalFloatOp(in.IROp, in.Type == ir.F32, a.F, b.F))
	}
	return interp.IntVal(evalIntOp(in.IROp, in.Type.Kind, uint64(in.Type.Bits()-1), a.I, b.I))
}

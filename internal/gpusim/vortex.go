package gpusim

// The Vortex-style backend models the decoupled split/join scheme of
// RISC-V GPGPUs ("Decoupled Control Flow and Data Access in RISC-V
// GPGPUs"): every divergent branch executes an explicit split that pushes
// the join continuation and both sides onto a hardware stack, and the
// matching join is a plain stack pop when a side reaches the join block.
// There is no opportunistic back-edge merging and no same-PC entry
// scanning — sibling paths that happen to meet again before their join
// point still execute separately, which is exactly where this model's
// warp efficiency diverges from IPDOM's on unstructured (unmerged)
// control flow.
//
// The continuation pushed at a split carries the full pre-split mask, so
// sides popping at the join never need to write their lanes back: the
// join block executes once, via the continuation, with every lane that
// did not retire inside the region (retire clears lanes from the whole
// stack). Nested splits joining at the same block pop through their own
// continuations the same way — only the outermost entry at a join block
// has pc != rpc and executes.
type vortexEngine struct {
	dp    *decodedProgram
	prof  *Profile
	stack []stackEntry
}

func newVortexEngine() *vortexEngine {
	return &vortexEngine{stack: make([]stackEntry, 0, 8)}
}

func (v *vortexEngine) bind(dp *decodedProgram) { v.dp, v.prof = dp, nil }

func (v *vortexEngine) reset(prof *Profile, fullMask uint32) {
	v.prof = prof
	v.stack = append(v.stack[:0], stackEntry{pc: 0, rpc: -1, mask: fullMask})
}

func (v *vortexEngine) next() (int, uint32, bool) {
	for len(v.stack) > 0 {
		e := &v.stack[len(v.stack)-1]
		if e.mask == 0 {
			v.stack = v.stack[:len(v.stack)-1]
			continue
		}
		if e.rpc >= 0 && e.pc == e.rpc {
			// Join: this side's lanes are already in the continuation
			// below, so the entry simply pops.
			if v.prof != nil {
				v.prof.Counters[ProfReconvEvents][v.dp.blockStart[e.pc]]++
			}
			v.stack = v.stack[:len(v.stack)-1]
			continue
		}
		return e.pc, e.mask, true
	}
	return 0, 0, false
}

func (v *vortexEngine) branch(blk int, brTaken, brNot uint32) {
	dp := v.dp
	end := dp.blockEnd[blk]
	term := &dp.instrs[end-1]
	top := len(v.stack) - 1
	switch {
	case brNot == 0:
		v.stack[top].pc = int(term.t0)
	case brTaken == 0:
		v.stack[top].pc = int(term.t1)
	default:
		if v.prof != nil {
			v.prof.Counters[ProfDivergeEvents][end-1]++
		}
		e := v.stack[top]
		if rpc := dp.ipdom[blk]; rpc >= 0 {
			// Split: continuation (full mask) at the join, then the
			// not-taken side, then the taken side on top.
			v.stack[top] = stackEntry{pc: rpc, rpc: e.rpc, mask: e.mask}
			v.stack = append(v.stack, stackEntry{pc: int(term.t1), rpc: rpc, mask: brNot})
			v.stack = append(v.stack, stackEntry{pc: int(term.t0), rpc: rpc, mask: brTaken})
		} else {
			// No join point: both sides run to ret under the enclosing
			// join.
			v.stack[top] = stackEntry{pc: int(term.t1), rpc: e.rpc, mask: brNot}
			v.stack = append(v.stack, stackEntry{pc: int(term.t0), rpc: e.rpc, mask: brTaken})
		}
	}
}

func (v *vortexEngine) jump(pc int) {
	// Strict split/join: no back-edge merging, the entry just moves.
	v.stack[len(v.stack)-1].pc = pc
}

func (v *vortexEngine) retire(mask uint32) {
	for i := range v.stack {
		v.stack[i].mask &^= mask
	}
}

package gpusim

import "fmt"

// PolicyKind selects the divergence-management backend a device uses. The
// zero value is the IPDOM reconvergence stack, so DeviceConfig literals
// written before the policy axis existed keep their exact behavior.
type PolicyKind uint8

const (
	// PolicyIPDOM is the classic immediate-post-dominator reconvergence
	// stack with opportunistic back-edge merging (the original gpusim
	// model, calibrated against V100).
	PolicyIPDOM PolicyKind = iota
	// PolicyMinSPPC is a MinSP-PC-style independent-thread-scheduling
	// model: divergent paths become independently schedulable thread
	// groups ordered by minimum PC, and reconvergence happens at explicit
	// per-warp convergence barriers inserted at the branch's immediate
	// post-dominator.
	PolicyMinSPPC
	// PolicyVortex is a Vortex-style decoupled split/join model: a strict
	// hardware split/join stack with no opportunistic back-edge merging —
	// sibling paths that meet again before the join point still execute
	// separately until the join.
	PolicyVortex

	numPolicies // sentinel
)

// String returns the policy's registry name.
func (k PolicyKind) String() string {
	switch k {
	case PolicyIPDOM:
		return "ipdom"
	case PolicyMinSPPC:
		return "minsppc"
	case PolicyVortex:
		return "vortex"
	}
	return fmt.Sprintf("policy(%d)", uint8(k))
}

// ParsePolicy maps a registry name back to its PolicyKind.
func ParsePolicy(s string) (PolicyKind, error) {
	for k := PolicyKind(0); k < numPolicies; k++ {
		if s == k.String() {
			return k, nil
		}
	}
	return 0, fmt.Errorf("gpusim: unknown reconvergence policy %q (want ipdom, minsppc, or vortex)", s)
}

// policyEngine is the reconvergence-policy contract the warp executor
// drives. The executor runs whole basic blocks; the engine decides which
// (block, mask) runs next and absorbs the control-flow outcome of each
// block. Engines are per-warp state machines: bind attaches one to the
// program of a run, reset starts a fresh warp, and all state must live in
// buffers that are reused across warps — and, on a recycled warpSim, across
// runs — so the warp loop stays allocation-free in steady state (the
// contract TestWarpLoopZeroAllocs enforces for every policy). Nothing but
// buffer capacity may survive a reset.
//
// Exactly one of branch/jump/retire is called after each executed block,
// mirroring the three terminator classes (conditional branch,
// unconditional branch, ret).
type policyEngine interface {
	// bind attaches the engine to the program the next warps run (nil
	// detaches it, so a parked engine pins no program).
	bind(dp *decodedProgram)
	// reset prepares the engine for a new warp whose full lane mask is
	// fullMask. prof may be nil (profiling disabled) and may differ
	// between warps.
	reset(prof *Profile, fullMask uint32)
	// next returns the block index and active mask to execute, or
	// ok=false when the warp has finished. Divergence/reconvergence
	// profile events are charged here and in branch, because their
	// placement is policy semantics.
	next() (blk int, mask uint32, ok bool)
	// branch resolves the conditional branch terminating blk: brTaken and
	// brNot partition the block's active mask by branch outcome (either
	// may be 0).
	branch(blk int, brTaken, brNot uint32)
	// jump follows the unconditional branch from the current block to pc.
	jump(pc int)
	// retire removes lanes that executed ret from all engine state.
	retire(mask uint32)
}

// newPolicyEngine builds an unbound engine for the given policy.
func newPolicyEngine(kind PolicyKind) policyEngine {
	switch kind {
	case PolicyMinSPPC:
		return newMinSPPCEngine()
	case PolicyVortex:
		return newVortexEngine()
	default:
		return newIPDOMEngine()
	}
}

type stackEntry struct {
	pc   int // block index to execute next
	rpc  int // reconvergence block index (-1 = function exit)
	mask uint32
}

// ipdomEngine is the original gpusim divergence model: an immediate-
// post-dominator reconvergence stack with opportunistic back-edge merging,
// extracted verbatim from the warp executor. Its metrics and per-PC
// profiles are byte-identical to the pre-refactor simulator.
type ipdomEngine struct {
	dp    *decodedProgram
	prof  *Profile
	stack []stackEntry
}

func newIPDOMEngine() *ipdomEngine {
	return &ipdomEngine{stack: make([]stackEntry, 0, 8)}
}

func (g *ipdomEngine) bind(dp *decodedProgram) { g.dp, g.prof = dp, nil }

func (g *ipdomEngine) reset(prof *Profile, fullMask uint32) {
	g.prof = prof
	g.stack = append(g.stack[:0], stackEntry{pc: 0, rpc: -1, mask: fullMask})
}

func (g *ipdomEngine) next() (int, uint32, bool) {
	for len(g.stack) > 0 {
		e := &g.stack[len(g.stack)-1]
		if e.mask == 0 {
			g.stack = g.stack[:len(g.stack)-1]
			continue
		}
		if e.pc == e.rpc {
			// Reached the reconvergence point: merge into the continuation
			// entry waiting at this block (any entry with the same pc — the
			// mask invariant is that an entry's threads are exactly those
			// whose next block is pc, so same-pc merging is always sound).
			mask := e.mask
			pc := e.pc
			rpc := e.rpc
			g.stack = g.stack[:len(g.stack)-1]
			if g.prof != nil {
				g.prof.Counters[ProfReconvEvents][g.dp.blockStart[pc]]++
			}
			merged := false
			for i := len(g.stack) - 1; i >= 0; i-- {
				if g.stack[i].pc == pc {
					g.stack[i].mask |= mask
					merged = true
					break
				}
			}
			if !merged {
				// The continuation was already scheduled away (possible after
				// opportunistic back-edge merges); keep executing from here
				// with the reconvergence point cleared.
				outer := -1
				if len(g.stack) > 0 {
					outer = g.stack[len(g.stack)-1].rpc
				}
				if outer == rpc {
					outer = -1
				}
				g.stack = append(g.stack, stackEntry{pc: pc, rpc: outer, mask: mask})
			}
			continue
		}
		return e.pc, e.mask, true
	}
	return 0, 0, false
}

func (g *ipdomEngine) branch(blk int, brTaken, brNot uint32) {
	dp := g.dp
	end := dp.blockEnd[blk]
	term := dp.targets[blk]
	rpc := dp.ipdom[blk]
	switch {
	case brNot == 0:
		g.jump(int(term[0]))
	case brTaken == 0:
		g.jump(int(term[1]))
	default:
		// Divergence: current entry becomes the continuation at the
		// reconvergence point (mask refilled as paths reconverge, or
		// both paths run to ret when rpc == -1); push both sides.
		if g.prof != nil {
			g.prof.Counters[ProfDivergeEvents][end-1]++
		}
		cont := g.stack[len(g.stack)-1]
		cont.pc = rpc
		cont.mask = 0
		g.stack[len(g.stack)-1] = cont
		g.stack = append(g.stack, stackEntry{pc: int(term[1]), rpc: rpc, mask: brNot})
		g.stack = append(g.stack, stackEntry{pc: int(term[0]), rpc: rpc, mask: brTaken})
	}
}

// jump retargets the current (top) entry to pc. Back edges (to an
// earlier block in the layout) are where Volta's scheduler
// opportunistically re-merges divergent threads whose PCs coincide: the
// entry merges with a sibling already waiting at that pc, or is parked
// below its siblings (but above its continuation) so they can catch up
// before the next trip runs.
func (g *ipdomEngine) jump(pc int) {
	cur := len(g.stack) - 1
	if pc >= g.stack[cur].pc { // forward edge: keep running
		g.stack[cur].pc = pc
		return
	}
	ent := g.stack[cur]
	ent.pc = pc
	g.stack = g.stack[:cur]
	// Merge with any entry already waiting at the same block — regardless
	// of its rpc: an entry's threads are exactly those whose next block is
	// its pc, so same-pc merging is sound, and the merged threads simply
	// pop wherever the entry later reconverges.
	for i := len(g.stack) - 1; i >= 0; i-- {
		if g.stack[i].pc == pc {
			g.stack[i].mask |= ent.mask
			if ent.rpc != g.stack[i].rpc {
				// Conservative: clear an ambiguous reconvergence point; the
				// entry then runs to another merge or ret.
				g.stack[i].rpc = -1
			}
			return
		}
	}
	// Park below the still-running siblings of this divergence (the
	// continuation entries waiting at their rpc stay put).
	ins := len(g.stack)
	for ins > 0 && g.stack[ins-1].pc != g.stack[ins-1].rpc && g.stack[ins-1].rpc == ent.rpc {
		ins--
	}
	g.stack = append(g.stack, stackEntry{})
	copy(g.stack[ins+1:], g.stack[ins:])
	g.stack[ins] = ent
}

func (g *ipdomEngine) retire(mask uint32) {
	// Retire the exited threads from the whole stack.
	for i := range g.stack {
		g.stack[i].mask &^= mask
	}
}

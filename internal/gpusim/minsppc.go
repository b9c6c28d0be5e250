package gpusim

// The MinSP-PC-style backend models post-Volta independent thread
// scheduling the way "Control Flow Management in Modern GPUs" describes
// it: a warp is a set of independently schedulable thread groups, the
// scheduler always runs the runnable group with the minimum PC (the
// convergence-friendly order), and reconvergence is not a stack pop but an
// explicit per-warp convergence barrier placed at the diverging branch's
// immediate post-dominator. Groups arriving at their barrier wait; when
// every live participant has arrived the barrier releases one merged
// group. Compared to IPDOM this interleaves divergent paths instead of
// running one side to completion first — same executed work on
// structured control flow, but a different fetch pattern (the icache sees
// alternating paths) and graceful handling of unstructured flow where the
// IPDOM stack falls back to opportunistic merging.

// tsGroup is one independently schedulable thread group.
type tsGroup struct {
	pc   int32  // next block index
	bar  int32  // innermost convergence barrier (index into barriers, -1 none)
	mask uint32 // member lanes
}

// tsBarrier is one per-warp convergence barrier.
type tsBarrier struct {
	block   int32  // reconvergence block the participants arrive at
	outer   int32  // enclosing barrier the released group reports to (-1 none)
	pending uint32 // live lanes that must arrive before release
	arrived uint32 // lanes already waiting
}

type minsppcEngine struct {
	dp       *decodedProgram
	prof     *Profile
	groups   []tsGroup
	barriers []tsBarrier
	cur      int // group returned by the last next()
	// unsettled records that some barrier's arrived or pending set changed
	// (an arrival, a retire) since next last looked for complete barriers.
	// Only such a change can complete one, so while it is clear the release
	// scan — which would otherwise walk every barrier the warp ever armed,
	// once per executed block — provably finds nothing and is skipped.
	// (A retire cannot in fact complete a barrier: a barrier sits at a
	// post-dominator, so its lanes pass it before they can reach a ret. It
	// sets the flag anyway, so the proof does not lean on that.)
	unsettled bool
}

func newMinSPPCEngine() *minsppcEngine {
	return &minsppcEngine{
		groups:   make([]tsGroup, 0, 8),
		barriers: make([]tsBarrier, 0, 8),
	}
}

func (g *minsppcEngine) bind(dp *decodedProgram) { g.dp, g.prof = dp, nil }

func (g *minsppcEngine) reset(prof *Profile, fullMask uint32) {
	g.prof = prof
	g.groups = append(g.groups[:0], tsGroup{pc: 0, bar: -1, mask: fullMask})
	g.barriers = g.barriers[:0]
	g.cur = -1
	g.unsettled = false
}

// next settles barrier arrivals and releases to a fixpoint, then schedules
// the runnable group with the minimum PC (ties go to the oldest group).
func (g *minsppcEngine) next() (int, uint32, bool) {
	for {
		changed := false
		// Drop emptied groups, deliver barrier arrivals, and merge groups
		// that share both PC and barrier scope (the hardware would have
		// coalesced them into one group already).
		out := 0
		for i := 0; i < len(g.groups); i++ {
			gr := g.groups[i]
			if gr.mask == 0 {
				changed = true
				continue
			}
			if gr.bar >= 0 && gr.pc == g.barriers[gr.bar].block {
				b := &g.barriers[gr.bar]
				b.arrived |= gr.mask
				g.unsettled = true
				if g.prof != nil && b.arrived != b.pending {
					g.prof.Counters[ProfBarrierWaits][g.dp.blockStart[gr.pc]]++
				}
				changed = true
				continue
			}
			merged := false
			for j := 0; j < out; j++ {
				if g.groups[j].pc == gr.pc && g.groups[j].bar == gr.bar {
					g.groups[j].mask |= gr.mask
					merged = true
					changed = true
					break
				}
			}
			if merged {
				continue
			}
			g.groups[out] = gr
			out++
		}
		g.groups = g.groups[:out]
		// Release complete barriers: one merged group continues past the
		// reconvergence block under the enclosing barrier. Scanning from
		// the innermost (highest index) keeps cascaded releases — an inner
		// release arriving straight at its outer barrier — deterministic.
		if g.unsettled {
			g.unsettled = false
			for bi := len(g.barriers) - 1; bi >= 0; bi-- {
				b := &g.barriers[bi]
				if b.pending != 0 && b.arrived == b.pending {
					if g.prof != nil {
						g.prof.Counters[ProfReconvEvents][g.dp.blockStart[b.block]]++
					}
					g.groups = append(g.groups, tsGroup{pc: b.block, bar: b.outer, mask: b.pending})
					b.pending, b.arrived = 0, 0
					changed = true
				}
			}
		}
		if changed {
			continue
		}
		if len(g.groups) == 0 {
			// Defensive: lane conservation guarantees no barrier can still
			// hold waiters here; if one somehow does, releasing its arrived
			// lanes keeps the warp finishing instead of wedging.
			forced := false
			for bi := len(g.barriers) - 1; bi >= 0; bi-- {
				b := &g.barriers[bi]
				if b.arrived != 0 {
					g.groups = append(g.groups, tsGroup{pc: b.block, bar: b.outer, mask: b.arrived})
					b.pending, b.arrived = 0, 0
					forced = true
					break
				}
			}
			if forced {
				continue
			}
			return 0, 0, false
		}
		best := 0
		for i := 1; i < len(g.groups); i++ {
			if g.groups[i].pc < g.groups[best].pc {
				best = i
			}
		}
		g.cur = best
		return int(g.groups[best].pc), g.groups[best].mask, true
	}
}

func (g *minsppcEngine) branch(blk int, brTaken, brNot uint32) {
	dp := g.dp
	end := dp.blockEnd[blk]
	term := dp.targets[blk]
	gr := &g.groups[g.cur]
	switch {
	case brNot == 0:
		gr.pc = term[0]
	case brTaken == 0:
		gr.pc = term[1]
	default:
		// Divergence: the group splits in two. With a known reconvergence
		// point a convergence barrier is armed there and both halves run
		// under it; without one (rpc == -1) both halves stay under the
		// enclosing barrier and run to ret.
		if g.prof != nil {
			g.prof.Counters[ProfDivergeEvents][end-1]++
		}
		bar := gr.bar
		if rpc := dp.ipdom[blk]; rpc >= 0 {
			g.barriers = append(g.barriers, tsBarrier{
				block:   int32(rpc),
				outer:   bar,
				pending: brTaken | brNot,
			})
			bar = int32(len(g.barriers) - 1)
		}
		*gr = tsGroup{pc: term[0], bar: bar, mask: brTaken}
		g.groups = append(g.groups, tsGroup{pc: term[1], bar: bar, mask: brNot})
	}
}

func (g *minsppcEngine) jump(pc int) {
	g.groups[g.cur].pc = int32(pc)
}

func (g *minsppcEngine) retire(mask uint32) {
	for i := range g.groups {
		g.groups[i].mask &^= mask
	}
	// Retired lanes stop participating in every barrier they were counted
	// in; a barrier whose remaining participants have all arrived releases
	// on the next scheduling pass.
	for i := range g.barriers {
		g.barriers[i].pending &^= mask
	}
	g.unsettled = true
}

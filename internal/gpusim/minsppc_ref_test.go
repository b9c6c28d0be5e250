package gpusim

import (
	"uu/internal/codegen"
	"uu/internal/interp"
)

// refMinSPPCEngine is the MinSP-PC engine with next as it was before the
// unsettled flag: every scheduling pass walks every barrier the warp has
// armed looking for complete ones. It is the exact-equality oracle for the
// flag (TestMinSPPCMatchesReferenceScheduler); everything but next is the
// production engine's.
type refMinSPPCEngine struct{ minsppcEngine }

func (g *refMinSPPCEngine) next() (int, uint32, bool) {
	for {
		changed := false
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
		if changed {
			continue
		}
		if len(g.groups) == 0 {
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

// RunReferenceMinSPPC runs p sequentially on cfg with the reference MinSP-PC
// scheduler in place of the production one, for the external test package.
func RunReferenceMinSPPC(p *codegen.Program, args []interp.Value, mem *interp.Memory, launch Launch, cfg DeviceConfig, prof *Profile) (*Metrics, error) {
	dp, err := decoded(p)
	if err != nil {
		return nil, err
	}
	w := newWarpSim(dp, cfg, mem)
	ref := &refMinSPPCEngine{*newMinSPPCEngine()}
	ref.bind(dp)
	w.eng = ref
	w.prof = prof
	m := &Metrics{}
	total := launch.Threads()
	for wi := 0; wi*cfg.WarpSize < total; wi++ {
		first, count := warpBounds(wi, cfg.WarpSize, total)
		if err := w.runThreaded(args, launch, first, count, m); err != nil {
			return nil, err
		}
		m.Warps++
	}
	return m, nil
}

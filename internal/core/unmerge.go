// Package core implements the paper's contribution: control-flow unmerging,
// the combined unroll-and-unmerge (u&u) transformation, and the heuristic
// that selects loops and unroll factors under the size model
// f(p, s, u) = Σ_{i=0}^{u-1} p^i·s  (Section III of the paper).
package core

import (
	"fmt"

	"uu/internal/analysis"
	"uu/internal/ir"
	"uu/internal/transform"
)

// Options configures the unmerge transformation.
type Options struct {
	// DirectSuccessorOnly duplicates only the merge block itself instead of
	// the whole tail path to the latch — the DBDS-style baseline of
	// Leopoldseder et al. the paper compares against in Section II-d.
	// The paper's design duplicates the entire path ("Our approach
	// aggressively duplicates the entire path leading to the initial loop
	// header"); that is the default (false).
	DirectSuccessorOnly bool
	// MaxBlocks aborts the (worst-case exponential) duplication once the
	// function grows beyond this many blocks. Every intermediate state is
	// semantics-preserving, so aborting just yields a partially unmerged
	// loop. 0 means DefaultMaxBlocks.
	MaxBlocks int
	// Origins, when non-nil, records for every cloned instruction the
	// original instruction it (transitively) stems from. ConditionProvenance
	// uses this to reconstruct the paper's Figure 5 path labels.
	Origins map[*ir.Instr]*ir.Instr
	// Selective enables the paper's proposed partial unmerging (Section VI):
	// only merge blocks that ProfitableMerges predicts to enable later
	// optimizations are duplicated, containing code growth on loops like
	// `complex` whose merges carry plain data flow.
	Selective bool
}

// DefaultMaxBlocks caps function growth during unmerging.
const DefaultMaxBlocks = 4096

// unmerge removes control-flow merge points inside loop l: every in-loop
// block other than the header (and other than inner-loop headers) with more
// than one in-loop predecessor is duplicated, once per extra predecessor,
// together with its whole tail region up to the latch. Afterwards each path
// through the (possibly unrolled) loop body is a separate chain of
// single-predecessor blocks, so dominated-edge facts (GVN) see the full
// control-flow provenance of every iteration.
//
// Loops containing convergent operations (barriers) are refused, mirroring
// the paper's use of LLVM's convergence analysis. Returns whether the CFG
// changed.
//
// The duplication loop mutates the CFG repeatedly; am is invalidated after
// every structural edit so each dominance query (direct-successor region
// selection) sees the current graph. am is always invalidated on return:
// establishing preheader/LCSSA form can mutate even when no merge block is
// duplicated. The unmerger's tables are s's.
func unmerge(f *ir.Function, am *analysis.AnalysisManager, l *analysis.Loop, opts Options, s *Scratch) bool {
	u := newUnmerger(f, am, l, opts, s)
	if u == nil {
		return false
	}
	changed := false
	for b := u.nextMerge(); b != nil; b = u.nextMerge() {
		u.split(b)
		changed = true
	}
	return changed
}

// blockMarks is a set of blocks indexed by ir.Block.ID. It grows on demand
// (duplication keeps minting blocks) and clear is O(1), so one value serves
// both as a long-lived set and as per-search scratch. The zero value must be
// cleared before its first use.
type blockMarks struct {
	stamp []uint32 // stamp[id] == epoch: the block is in the set
	epoch uint32
}

func (m *blockMarks) has(b *ir.Block) bool { return m.hasID(b.ID()) }

func (m *blockMarks) hasID(id int) bool {
	return id < len(m.stamp) && m.stamp[id] == m.epoch
}

func (m *blockMarks) add(b *ir.Block) { m.addID(b.ID()) }

func (m *blockMarks) addID(id int) {
	if id >= len(m.stamp) {
		m.stamp = append(m.stamp, make([]uint32, id+1-len(m.stamp))...)
	}
	m.stamp[id] = m.epoch
}

// clear empties the set. A Scratch's sets are cleared a few times per block
// every Unmerge call creates, so over a long-lived process the epoch does
// wrap; the stamps are zeroed when it does, so no stale stamp can match.
func (m *blockMarks) clear() {
	m.epoch++
	if m.epoch == 0 {
		clear(m.stamp)
		m.epoch = 1
	}
}

// unmerger is the state of one Unmerge call: the loop and its options, and
// the Scratch it works in.
type unmerger struct {
	*Scratch
	f      *ir.Function
	am     *analysis.AnalysisManager
	header *ir.Block
	opts   Options

	maxBlocks int
	dupCount  int
}

// Scratch is the storage the unmerger reuses from one Unmerge call to the
// next, all of it keyed by block ID: the loop's growing block set, the merge
// search's view of the body, the scratch the search and each duplication
// reuse, and the ir.Cloner that copies each tail. newUnmerger clears every
// set and the rows, and the rest is overwritten before it is read, so a
// Scratch may serve any sequence of calls — one at a time, on any function —
// and a call a panic abandoned costs the next nothing. The zero value is
// ready; the pipeline owns one per compilation.
type Scratch struct {
	// loopSet is the working copy of the loop's block set; clones are added
	// as they are made.
	loopSet blockMarks
	// exempt holds the blocks that keep their merges: inner-loop blocks,
	// merges the selective predictor rejects, and (one-round mode) merges
	// introduced by earlier duplications. Clones inherit the exemption.
	exempt blockMarks
	// initial is used in direct-successor mode only: the blocks present at
	// entry, the only ones that mode duplicates.
	initial blockMarks

	// rows is the loop body as the merge search reads it, by block ID. Only
	// split changes any of it, and refreshes the rows it changed.
	rows []loopRow

	// Merge-search scratch.
	visited blockMarks
	stack   []dfsFrame
	order   []int32
	// Per-duplication scratch: the merge block's in-loop predecessors, the
	// cloner's tables, the region being cloned and its marks, the region plus
	// its clones, and a copy of the phis an erasing loop walks.
	inPreds        []*ir.Block
	cloner         ir.Cloner
	region         []*ir.Block
	inRegion       blockMarks
	regionOrClones blockMarks
	work           []*ir.Block
	phis           []*ir.Instr
}

// Park drops every reference the scratch holds to blocks and instructions,
// keeping the storage: a parked Scratch pins no function.
func (s *Scratch) Park() {
	s.rows = dropAll(s.rows)
	s.inPreds = dropAll(s.inPreds)
	s.cloner.Reset()
	s.region = dropAll(s.region)
	s.work = dropAll(s.work)
	s.phis = dropAll(s.phis)
}

// dropAll clears the whole of s's array, past its length too, and returns
// it empty.
func dropAll[T any](s []T) []T {
	clear(s[:cap(s)])
	return s[:0]
}

// loopRow is what the merge search reads of one loop block.
type loopRow struct {
	b *ir.Block
	// succs holds the IDs of the block's successors inside the loop other
	// than the header, in terminator order; noBlock where there is none.
	succs [2]int32
	// inPreds counts the block's predecessor edges from inside the loop.
	inPreds int32
}

const noBlock = -1

type dfsFrame struct {
	id   int32
	next int32 // the slot of rows[id].succs to look at next
}

// newUnmerger puts l into preheader/LCSSA form and builds the block sets in
// s, or returns nil when the loop cannot be unmerged.
func newUnmerger(f *ir.Function, am *analysis.AnalysisManager, l *analysis.Loop, opts Options, s *Scratch) *unmerger {
	if l.HasConvergentOp() {
		return nil
	}
	if l.Latch() == nil {
		return nil
	}
	u := &unmerger{Scratch: s, f: f, am: am, header: l.Header, opts: opts, maxBlocks: opts.MaxBlocks}
	if u.maxBlocks == 0 {
		u.maxBlocks = DefaultMaxBlocks
	}
	transform.EnsurePreheader(f, l)
	transform.EnsureLCSSA(f, l)
	am.InvalidateAll()

	// The sets start empty and the rows zero (refresh grows them back
	// from length 0, which writes zeros).
	for _, m := range []*blockMarks{&s.loopSet, &s.exempt, &s.initial, &s.visited, &s.inRegion, &s.regionOrClones} {
		m.clear()
	}
	s.rows = s.rows[:0]
	for _, b := range l.Blocks() {
		u.loopSet.add(b)
	}
	for _, b := range l.Blocks() {
		u.refresh(b)
	}

	// Blocks of inner loops keep their merges: duplicating an inner back
	// edge would be loop peeling, and collapsing an inner merge would drop
	// back-edge values. Inner loops are unmerged by their own Unmerge calls
	// (see UnrollAndUnmerge); here they are cloned wholesale when they sit
	// inside a duplicated tail.
	for _, il := range am.LoopInfo().Loops {
		if il.Header != u.header && l.Contains(il.Header) {
			for _, ib := range il.Blocks() {
				u.exempt.add(ib)
			}
		}
	}

	// Selective (partial) unmerging: exempt the merge blocks the benefit
	// predictor rejects.
	if opts.Selective {
		profitable := ProfitableMerges(l)
		for _, b := range l.Blocks() {
			if b == u.header || u.exempt.has(b) {
				continue
			}
			if u.rows[b.ID()].inPreds >= 2 && !profitable[b] {
				u.exempt.add(b)
			}
		}
	}

	// In direct-successor (DBDS-style) mode only the merge blocks present at
	// entry are duplicated — one round, not to fixpoint — matching [8]'s
	// "unmerges only the direct successor basic block". The paper's design
	// iterates until no merge block remains.
	if opts.DirectSuccessorOnly {
		for _, b := range l.Blocks() {
			u.initial.add(b)
		}
	}
	return u
}

// refresh re-reads loop block b's row from the IR.
func (u *unmerger) refresh(b *ir.Block) {
	if n := u.f.BlockIDBound() - len(u.rows); n > 0 {
		u.rows = append(u.rows, make([]loopRow, n)...)
	}
	row := loopRow{b: b, succs: [2]int32{noBlock, noBlock}}
	k := 0
	for _, s := range b.Succs() {
		if s != u.header && u.loopSet.has(s) {
			row.succs[k] = int32(s.ID())
			k++
		}
	}
	for _, p := range b.Preds() {
		if u.loopSet.has(p) {
			row.inPreds++
		}
	}
	u.rows[b.ID()] = row
}

// nextMerge returns the merge block to duplicate next, or nil when none is
// left or the function has reached the growth cap.
func (u *unmerger) nextMerge() *ir.Block {
	if u.f.NumBlocks() > u.maxBlocks {
		return nil
	}
	b := u.findMergeBlock()
	for b != nil && u.opts.DirectSuccessorOnly && !u.initial.has(b) {
		// One-round mode: mask off merges introduced by earlier duplications.
		u.exempt.add(b)
		b = u.findMergeBlock()
	}
	return b
}

// findMergeBlock returns the first non-exempt block (in reverse postorder
// from the header through in-loop forward edges) that merges several in-loop
// predecessors, or nil. It runs once per duplicated merge block over a body
// that duplication keeps growing, so the DFS is iterative and walks the
// unmerger's own rows rather than the IR's terminators: no allocation once
// the buffers have grown, and one small record to read per block.
func (u *unmerger) findMergeBlock() *ir.Block {
	// Postorder over the loop body DAG (edges into the header ignored).
	u.visited.clear()
	u.order = u.order[:0]
	u.visited.add(u.header)
	u.stack = append(u.stack[:0], dfsFrame{id: int32(u.header.ID())})
	for len(u.stack) > 0 {
		top := &u.stack[len(u.stack)-1]
		child := int32(noBlock)
		for row := &u.rows[top.id]; top.next < 2 && child == noBlock; top.next++ {
			if s := row.succs[top.next]; s != noBlock && !u.visited.hasID(int(s)) {
				child = s
			}
		}
		if child == noBlock {
			u.order = append(u.order, top.id)
			u.stack = u.stack[:len(u.stack)-1]
			continue
		}
		u.visited.addID(int(child))
		u.stack = append(u.stack, dfsFrame{id: child})
	}
	// The header finished last; every other block is a candidate.
	for i := len(u.order) - 2; i >= 0; i-- {
		id := u.order[i]
		if row := &u.rows[id]; row.inPreds >= 2 && !u.exempt.hasID(int(id)) {
			return row.b
		}
	}
	return nil
}

// split keeps merge block b's first in-loop predecessor and gives every
// other one its own copy of b's tail region.
func (u *unmerger) split(b *ir.Block) {
	u.inPreds = u.inPreds[:0]
	for _, p := range b.Preds() {
		if u.loopSet.has(p) {
			u.inPreds = append(u.inPreds, p)
		}
	}
	c := &u.cloner
	for _, pi := range u.inPreds[1:] {
		u.dupCount++
		region := u.tailRegion(b)
		c.Clone(region, fmt.Sprintf(".d%d", u.dupCount))
		// Register clones in the loop set and propagate the exemption.
		u.inRegion.clear()
		u.regionOrClones.clear()
		for _, rb := range region {
			cb := c.Block(rb)
			u.inRegion.add(rb)
			u.regionOrClones.add(rb)
			u.regionOrClones.add(cb)
			u.loopSet.add(cb)
			if u.exempt.has(rb) {
				u.exempt.add(cb)
			}
			// Stamp path duplicates with the duplication id (composing with
			// any unroll iteration tag, like the ".u1.d3" block names), and
			// note the root original each stems from (following earlier
			// recorded ancestry). A clone's instructions line up with its
			// original's.
			for i, ci := range cb.Instrs() {
				loc := ci.Loc()
				loc.Dup = int32(u.dupCount)
				ci.SetLoc(loc)
				if origins := u.opts.Origins; origins != nil {
					root := rb.Instrs()[i]
					if r, ok := origins[root]; ok {
						root = r
					}
					origins[ci] = root
				}
			}
		}
		// Blocks outside the region targeted from inside it (the loop
		// header via back edges, loop exits, in-loop successors in
		// direct-successor mode): their phis gain one incoming per
		// cloned edge.
		for _, rb := range region {
			for _, s := range rb.Succs() {
				if u.inRegion.has(s) {
					continue
				}
				for _, phi := range s.Phis() {
					v := phi.PhiIncoming(rb)
					if v == nil {
						continue
					}
					if phi.PhiIncoming(c.Block(rb)) == nil {
						phi.PhiAddIncoming(c.Value(v), c.Block(rb))
					}
				}
			}
		}
		// Cloned phis: incomings from blocks outside the region are
		// edges that do not exist on the clone. For the duplicated merge
		// block b itself the only remaining pred will be pi, so its phis
		// collapse to pi's value; elsewhere the stale incomings are
		// dropped. A cloned phi names in-region incoming blocks by their
		// clones, so "inside" is membership in the region or its clones.
		for _, rb := range region {
			cb := c.Block(rb)
			u.phis = append(u.phis[:0], cb.Phis()...)
			for k, phi := range u.phis {
				if rb == b {
					val := c.Value(b.Phis()[k].PhiIncoming(pi))
					phi.ReplaceAllUsesWith(val)
					cb.Erase(phi)
					continue
				}
				for i := phi.NumBlocks() - 1; i >= 0; i-- {
					if !u.regionOrClones.has(phi.BlockArg(i)) {
						phi.PhiRemoveIncoming(phi.BlockArg(i))
					}
				}
			}
		}
		// Redirect pi into the cloned merge block.
		pi.ReplaceSucc(b, c.Block(b))
		for _, phi := range b.Phis() {
			phi.PhiRemoveIncoming(pi)
		}
		u.am.InvalidateAll()

		// What the search walks changed in these rows only: the clones are
		// new, pi has a new successor, b lost a predecessor, and a loop block
		// a clone branches to outside the region (the header, mostly) gained
		// one.
		u.refresh(pi)
		u.refresh(b)
		for _, rb := range region {
			cb := c.Block(rb)
			u.refresh(cb)
			for _, s := range cb.Succs() {
				if u.loopSet.has(s) && !u.regionOrClones.has(s) {
					u.refresh(s)
				}
			}
		}
	}
}

// tailRegion returns the blocks reachable from b inside the loop without
// passing through the header — the whole path to the latch that the paper's
// design duplicates. In direct-successor mode the region is instead the
// smallest SSA-closed region around the merge block: b plus the blocks it
// dominates (values defined there are only used inside it or through phis),
// which approximates the DBDS-style "duplicate only the merge block" of [8].
func (u *unmerger) tailRegion(b *ir.Block) []*ir.Block {
	if u.opts.DirectSuccessorOnly {
		dt := u.am.DomTree()
		region := []*ir.Block{}
		var walkDom func(x *ir.Block)
		walkDom = func(x *ir.Block) {
			region = append(region, x)
			for _, c := range dt.Children(x) {
				if u.loopSet.has(c) && c != u.header {
					walkDom(c)
				}
			}
		}
		walkDom(b)
		return region
	}
	region := u.region[:0]
	u.visited.clear()
	u.visited.add(b)
	u.work = append(u.work[:0], b)
	for len(u.work) > 0 {
		x := u.work[len(u.work)-1]
		u.work = u.work[:len(u.work)-1]
		region = append(region, x)
		for _, s := range x.Succs() {
			if s == u.header || !u.loopSet.has(s) || u.visited.has(s) {
				continue
			}
			u.visited.add(s)
			u.work = append(u.work, s)
		}
	}
	u.region = region
	return region
}

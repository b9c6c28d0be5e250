package analysis

import (
	"fmt"
	"sort"

	"uu/internal/ir"
)

// Loop is a natural loop: a strongly-connected region with a single header
// that dominates all blocks in the loop.
type Loop struct {
	Header   *ir.Block
	Parent   *Loop
	Children []*Loop

	blocks   []*ir.Block // in discovery order, Header first
	blockSet ir.BlockSet
	latches  []*ir.Block // blocks with a back edge to Header
	ID       int         // deterministic ID assigned by LoopInfo (preorder over headers)
}

// Blocks returns the loop's blocks (header first). Must not be mutated.
func (l *Loop) Blocks() []*ir.Block { return l.blocks }

// Contains reports whether b is inside the loop (including nested loops). A
// block minted after the loop info was built is not.
func (l *Loop) Contains(b *ir.Block) bool { return l.blockSet.Has(b) }

// Latches returns the blocks with back edges to the header.
func (l *Loop) Latches() []*ir.Block { return l.latches }

// Latch returns the unique latch, or nil if there are several.
func (l *Loop) Latch() *ir.Block {
	if len(l.latches) == 1 {
		return l.latches[0]
	}
	return nil
}

// Depth returns the nesting depth (1 for outermost loops).
func (l *Loop) Depth() int {
	d := 1
	for p := l.Parent; p != nil; p = p.Parent {
		d++
	}
	return d
}

// Preheader returns the unique predecessor of the header outside the loop,
// provided it has the header as its only successor; otherwise nil.
// Passes that need a preheader call transform.EnsurePreheader first.
func (l *Loop) Preheader() *ir.Block {
	var ph *ir.Block
	for _, p := range l.Header.Preds() {
		if l.Contains(p) {
			continue
		}
		if ph != nil && ph != p {
			return nil
		}
		ph = p
	}
	if ph == nil || len(ph.Succs()) != 1 {
		return nil
	}
	return ph
}

// ExitingBlocks returns loop blocks with a successor outside the loop.
func (l *Loop) ExitingBlocks() []*ir.Block {
	var out []*ir.Block
	for _, b := range l.blocks {
		for _, s := range b.Succs() {
			if !l.Contains(s) {
				out = append(out, b)
				break
			}
		}
	}
	return out
}

// ExitBlocks returns the distinct blocks outside the loop with a predecessor
// inside it.
func (l *Loop) ExitBlocks() []*ir.Block {
	var out []*ir.Block
	for _, b := range l.blocks {
		for _, s := range b.Succs() {
			if !l.Contains(s) {
				out = appendUnique(out, s)
			}
		}
	}
	return out
}

// String describes the loop for diagnostics.
func (l *Loop) String() string {
	return fmt.Sprintf("loop#%d(header=%s, depth=%d, %d blocks)", l.ID, l.Header.Name, l.Depth(), len(l.blocks))
}

// LoopInfo holds all natural loops of a function.
type LoopInfo struct {
	Loops  []*Loop // all loops, preorder: outer before inner, by header RPO
	Top    []*Loop // outermost loops
	loopOf []int32 // by Block.ID: the innermost containing loop's ID + 1, 0 for none
}

// NewLoopInfo discovers the natural loops of f, given f's dominator tree.
// Loops sharing a header are merged (as in LLVM). Loop IDs are assigned
// deterministically in reverse postorder of headers, outer loops first —
// these are the "consistent, deterministic unique ids" the paper's pass
// exposes for per-loop selection.
func NewLoopInfo(f *ir.Function, dt *DomTree) *LoopInfo {
	li := &LoopInfo{}

	// Find back edges. While loops are being discovered, loopOf maps a
	// header to its loop's position in loops (+ 1).
	var loops []*Loop
	for _, b := range f.Blocks() {
		for _, s := range b.Succs() {
			if !dt.Dominates(s, b) {
				continue
			}
			// Back edge b->s.
			if li.loopOf == nil {
				li.loopOf = make([]int32, f.BlockIDBound())
			}
			if li.loopOf[s.ID()] == 0 {
				loops = append(loops, &Loop{Header: s, blocks: []*ir.Block{s}})
				li.loopOf[s.ID()] = int32(len(loops))
			}
			l := loops[li.loopOf[s.ID()]-1]
			l.latches = append(l.latches, b)
		}
	}
	if len(loops) == 0 {
		return li
	}

	// Populate loop bodies: walk backwards from each latch until the header.
	var work []*ir.Block
	for _, l := range loops {
		l.blockSet = ir.NewBlockSet(f)
		l.blockSet.Add(l.Header)
		work = append(work[:0], l.latches...)
		for len(work) > 0 {
			b := work[len(work)-1]
			work = work[:len(work)-1]
			if l.blockSet.Has(b) {
				continue
			}
			l.blockSet.Add(b)
			l.blocks = append(l.blocks, b)
			for _, p := range b.Preds() {
				if !l.blockSet.Has(p) && dt.Reachable(p) {
					work = append(work, p)
				}
			}
		}
	}

	// Establish nesting: parent = smallest strictly-containing loop.
	for _, inner := range loops {
		var best *Loop
		for _, outer := range loops {
			if outer == inner || !outer.Contains(inner.Header) {
				continue
			}
			if best == nil || len(outer.blocks) < len(best.blocks) {
				best = outer
			}
		}
		inner.Parent = best
		if best != nil {
			best.Children = append(best.Children, inner)
		}
	}

	// Deterministic ordering: sort headers by reverse postorder position,
	// which is the header's number in the dominator tree (both come from one
	// DFS over successors from the entry; a header outside the tree sorts
	// first, as it did with no position at all).
	if len(loops) > 1 {
		sort.SliceStable(loops, func(i, j int) bool {
			di, dj := loops[i].Depth(), loops[j].Depth()
			ri, rj := dt.numOf(loops[i].Header), dt.numOf(loops[j].Header)
			if ri != rj {
				return ri < rj
			}
			return di < dj
		})
	}
	for i, l := range loops {
		l.ID = i
	}
	li.Loops = loops
	for _, l := range loops {
		if l.Parent == nil {
			li.Top = append(li.Top, l)
		}
	}

	// loopOf: innermost loop containing each block.
	clear(li.loopOf)
	for _, l := range loops {
		for _, b := range l.blocks {
			cur := li.loopOf[b.ID()]
			if cur == 0 || len(l.blocks) < len(loops[cur-1].blocks) {
				li.loopOf[b.ID()] = int32(l.ID + 1)
			}
		}
	}
	return li
}

// LoopFor returns the innermost loop containing b, or nil. A block minted
// after the loop info was built is in no loop.
func (li *LoopInfo) LoopFor(b *ir.Block) *Loop {
	if id := b.ID(); id < len(li.loopOf) && li.loopOf[id] != 0 {
		return li.Loops[li.loopOf[id]-1]
	}
	return nil
}

// LoopByID returns the loop with the given deterministic ID, or nil.
func (li *LoopInfo) LoopByID(id int) *Loop {
	if id < 0 || id >= len(li.Loops) {
		return nil
	}
	return li.Loops[id]
}

// HasConvergentOp reports whether any instruction in the loop is convergent
// (e.g. a barrier). The unmerge pass refuses such loops, mirroring the
// paper's use of LLVM's convergence analysis.
func (l *Loop) HasConvergentOp() bool {
	for _, b := range l.blocks {
		for _, in := range b.Instrs() {
			if in.IsConvergent() {
				return true
			}
		}
	}
	return false
}

package core

import (
	"fmt"
	"testing"

	"uu/internal/analysis"
	"uu/internal/ir"
)

// Unmerge is unmerge on a fresh analysis manager and fresh tables.
func Unmerge(f *ir.Function, l *analysis.Loop, opts Options) bool {
	return unmerge(f, analysis.NewAnalysisManager(f, new(analysis.Scratch)), l, opts, new(Scratch))
}

// refFindMergeBlock is the merge search as it was before blocks had numbers:
// a recursive DFS with a fresh pointer-keyed state map per call. It survives
// only here, as the oracle unmerger.findMergeBlock is checked against.
func refFindMergeBlock(header *ir.Block, loopSet, innerBlock map[*ir.Block]bool) *ir.Block {
	// RPO over the loop body DAG (edges into the header ignored).
	var order []*ir.Block
	state := map[*ir.Block]int{}
	var dfs func(b *ir.Block)
	dfs = func(b *ir.Block) {
		state[b] = 1
		for _, s := range b.Succs() {
			if !loopSet[s] || s == header || state[s] != 0 {
				continue
			}
			dfs(s)
		}
		state[b] = 2
		order = append(order, b)
	}
	dfs(header)
	for i := len(order) - 1; i >= 0; i-- {
		b := order[i]
		if b == header || innerBlock[b] {
			continue
		}
		n := 0
		for _, p := range b.Preds() {
			if loopSet[p] {
				n++
			}
		}
		if n >= 2 {
			return b
		}
	}
	return nil
}

// UnmergeWithOracle is Unmerge with every merge search of the fixpoint
// checked against refFindMergeBlock on the same state: mismatch is called
// with the round and both answers whenever they differ. It returns the
// number of searches compared. One-round (DirectSuccessorOnly) mode, whose
// nextMerge is more than one search, is not supported.
func UnmergeWithOracle(f *ir.Function, l *analysis.Loop, opts Options, mismatch func(round int, got, want *ir.Block)) int {
	if opts.DirectSuccessorOnly {
		panic("core: UnmergeWithOracle: one-round mode")
	}
	u := newUnmerger(f, analysis.NewAnalysisManager(f, new(analysis.Scratch)), l, opts, new(Scratch))
	if u == nil {
		return 0
	}
	// The reference's sets, kept in step with the unmerger's: split only
	// ever adds the clones it appends to the block list.
	loopSet, exempt := map[*ir.Block]bool{}, map[*ir.Block]bool{}
	sync := func(blocks []*ir.Block) {
		for _, b := range blocks {
			if u.loopSet.has(b) {
				loopSet[b] = true
			}
			if u.exempt.has(b) {
				exempt[b] = true
			}
		}
	}
	sync(f.Blocks())
	for round := 1; ; round++ {
		if f.NumBlocks() > u.maxBlocks {
			return round - 1 // the growth cap ends the fixpoint, not the search
		}
		want := refFindMergeBlock(u.header, loopSet, exempt)
		got := u.nextMerge()
		if got != want {
			mismatch(round, got, want)
		}
		if got == nil {
			return round
		}
		n := f.NumBlocks()
		u.split(got)
		sync(f.Blocks()[n:])
	}
}

// UnmergeAuditingAdjacency is Unmerge with the merge search's adjacency
// audited after newUnmerger and after every split: for every block of the
// loop, the row the search walks must equal one recomputed from the IR, and
// stale is called with a description where it does not. It returns the
// number of splits and what one merge search allocates once the fixpoint
// has grown the search's buffers.
func UnmergeAuditingAdjacency(f *ir.Function, l *analysis.Loop, opts Options, stale func(string)) (splits int, searchAllocs float64) {
	u := newUnmerger(f, analysis.NewAnalysisManager(f, new(analysis.Scratch)), l, opts, new(Scratch))
	if u == nil {
		return 0, 0
	}
	audit := func() {
		for _, b := range f.Blocks() {
			if !u.loopSet.has(b) {
				continue
			}
			want := loopRow{b: b, succs: [2]int32{noBlock, noBlock}}
			k := 0
			for _, s := range b.Succs() {
				if s != u.header && u.loopSet.has(s) {
					want.succs[k] = int32(s.ID())
					k++
				}
			}
			for _, p := range b.Preds() {
				if u.loopSet.has(p) {
					want.inPreds++
				}
			}
			if got := u.rows[b.ID()]; got != want {
				stale(fmt.Sprintf("after %d splits, block %s: adjacency has %v / %d in-loop preds, the IR %v / %d",
					splits, b.Name, got.succs, got.inPreds, want.succs, want.inPreds))
			}
		}
	}
	audit()
	for b := u.nextMerge(); b != nil; b = u.nextMerge() {
		u.split(b)
		splits++
		audit()
	}
	return splits, testing.AllocsPerRun(10, func() { u.findMergeBlock() })
}

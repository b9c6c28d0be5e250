package analysis

import (
	"testing"

	"uu/internal/ir"
)

// managerTestFunc is a minimal single-loop function.
const managerSrc = `
func @mtest(i64 %n) {
entry:
  br %head
head:
  %i = phi i64 [ 0, %entry ], [ %inc, %head ]
  %inc = add i64 %i, i64 1
  %c = icmp slt i64 %inc, i64 %n
  condbr i1 %c, %head, %exit
exit:
  ret
}
`

func TestManagerCachesAndCounts(t *testing.T) {
	f := parse(t, managerSrc)
	am := NewAnalysisManager(f, new(Scratch))
	if am.Function() != f {
		t.Fatalf("Function() mismatch")
	}

	dt1 := am.DomTree()
	dt2 := am.DomTree()
	if dt1 != dt2 {
		t.Fatalf("DomTree not cached: distinct pointers")
	}
	li1 := am.LoopInfo()
	li2 := am.LoopInfo()
	if li1 != li2 {
		t.Fatalf("LoopInfo not cached")
	}
	if len(li1.Loops) != 1 {
		t.Fatalf("want 1 loop, got %d", len(li1.Loops))
	}
	st := am.Stats()
	// DomTree: 1 miss + 1 hit from the direct queries + 1 hit from
	// LoopInfo's dependency; LoopInfo: 1 miss + 1 hit.
	if st.Misses[DomTreeID] != 1 || st.Hits[DomTreeID] != 2 {
		t.Errorf("domtree counters: %+v", st)
	}
	if st.Misses[LoopInfoID] != 1 || st.Hits[LoopInfoID] != 1 {
		t.Errorf("loopinfo counters: %+v", st)
	}
	if st.HitRate() <= 0 {
		t.Errorf("hit rate not positive: %v", st.HitRate())
	}
}

// TestManagerInvalidation holds the manager to its handle contract: a query
// after Unchanged or PreserveCFG returns the very trees it cached; one after
// PreserveNone (or InvalidateAll) misses, and rebuilds the trees for the
// edited CFG in the same storage, so the handles the caller held — the loop
// included — now answer for the new graph.
func TestManagerInvalidation(t *testing.T) {
	f := parse(t, managerSrc)
	am := NewAnalysisManager(f, new(Scratch))
	dt, li := am.DomTree(), am.LoopInfo()
	loop := li.Loops[0]
	for _, pa := range []PreservedAnalyses{Unchanged(), PreserveCFG(), If(false, PreserveNone())} {
		am.Invalidate(pa)
		if am.DomTree() != dt || am.LoopInfo() != li {
			t.Fatalf("%+v dropped a cached tree", pa)
		}
	}
	if st := am.Stats(); st.TotalInvalidated() != 0 || st.TotalMisses() != 2 {
		t.Errorf("a preserving declaration counted invalidations or misses: %+v", st)
	}

	// splitEdge puts a new block on the edge from -> to, which has no phi
	// but (for the back edge) head's.
	head, exit := f.BlockByName("head"), f.BlockByName("exit")
	splitEdge := func(name string, from, to *ir.Block) *ir.Block {
		mid := f.NewBlock(name)
		ir.NewBuilder(mid).Br(to)
		from.ReplaceSucc(to, mid)
		for _, phi := range to.Phis() {
			for i := 0; i < phi.NumBlocks(); i++ {
				if phi.BlockArg(i) == from {
					phi.SetBlockArg(i, mid)
				}
			}
		}
		return mid
	}

	latch := splitEdge("latch", head, head)
	am.Invalidate(PreserveNone())
	if am.DomTree() != dt || am.LoopInfo() != li || li.Loops[0] != loop {
		t.Fatalf("PreserveNone rebuilt a tree in new storage")
	}
	if st := am.Stats(); st.Invalidated != [numAnalyses]int{1, 1} || st.Misses != [numAnalyses]int{2, 2} {
		t.Errorf("PreserveNone counters: %+v", st)
	}
	if dt.Idom(latch) != head || !dt.Dominates(head, latch) ||
		len(li.Loops) != 1 || loop.Latch() != latch || len(loop.Blocks()) != 2 || li.LoopFor(latch) != loop {
		t.Fatalf("the rebuilt trees do not answer for the split back edge: idom %v, %v", dt.Idom(latch), loop)
	}

	mid := splitEdge("mid", head, exit)
	am.InvalidateAll()
	if am.DomTree() != dt || am.LoopInfo() != li || li.Loops[0] != loop {
		t.Fatalf("InvalidateAll rebuilt a tree in new storage")
	}
	if st := am.Stats(); st.Invalidated != [numAnalyses]int{2, 2} || st.Misses != [numAnalyses]int{3, 3} {
		t.Errorf("InvalidateAll counters: %+v", st)
	}
	if dt.Idom(mid) != head || dt.Idom(exit) != mid || li.LoopFor(mid) != nil || loop.Contains(mid) {
		t.Fatalf("the rebuilt trees do not answer for the split exit edge")
	}
}

func TestPreservedAnalyses(t *testing.T) {
	for _, c := range []struct {
		name    string
		pa      PreservedAnalyses
		changed bool
	}{
		{"Unchanged", Unchanged(), false},
		{"PreserveCFG", PreserveCFG(), true},
		{"PreserveNone", PreserveNone(), true},
		{"If(false)", If(false, PreserveNone()), false},
		{"If(true)", If(true, PreserveNone()), true},
	} {
		if c.pa.Changed() != c.changed {
			t.Errorf("%s: Changed() = %v", c.name, c.pa.Changed())
		}
	}
	if If(true, PreserveCFG()) != PreserveCFG() {
		t.Error("If(true) must pass its declaration through")
	}
}

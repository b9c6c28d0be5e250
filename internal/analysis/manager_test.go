package analysis

import "testing"

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
	am := NewAnalysisManager(f)
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

// TestManagerInvalidation holds the manager to pointer identity: a query
// after Unchanged or PreserveCFG returns the very trees it cached, one after
// PreserveNone (or InvalidateAll) returns new ones.
func TestManagerInvalidation(t *testing.T) {
	f := parse(t, managerSrc)
	am := NewAnalysisManager(f)
	dt, li := am.DomTree(), am.LoopInfo()
	for _, pa := range []PreservedAnalyses{Unchanged(), PreserveCFG(), If(false, PreserveNone())} {
		am.Invalidate(pa)
		if am.DomTree() != dt || am.LoopInfo() != li {
			t.Fatalf("%+v dropped a cached tree", pa)
		}
	}
	if st := am.Stats(); st.TotalInvalidated() != 0 {
		t.Errorf("a preserving declaration counted invalidations: %+v", st)
	}

	am.Invalidate(PreserveNone())
	dt2, li2 := am.DomTree(), am.LoopInfo()
	if dt2 == dt || li2 == li {
		t.Fatalf("PreserveNone kept a cached tree")
	}
	if st := am.Stats(); st.Invalidated != [numAnalyses]int{1, 1} {
		t.Errorf("PreserveNone invalidation counters: %+v", st)
	}
	am.InvalidateAll()
	if am.DomTree() == dt2 || am.LoopInfo() == li2 {
		t.Fatalf("InvalidateAll kept a cached tree")
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

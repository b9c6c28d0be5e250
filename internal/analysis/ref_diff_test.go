package analysis_test

import (
	"fmt"
	"testing"

	"uu/internal/analysis"
	"uu/internal/corpus"
	"uu/internal/harden"
	"uu/internal/ir"
	"uu/internal/transform"
)

// forEachShape calls check on the functions the analyses are held to their
// references on: every suite kernel canonicalized and then after the loop
// pass (u&u of each of its loops at u = 2, 4 and 8) — the shape whose trees
// a u=8 compile rebuilds most — and the generated kernels of seeds 1–200,
// as built and canonicalized.
func forEachShape(t *testing.T, check func(name string, f *ir.Function)) {
	t.Helper()
	corpus.Kernels(corpus.Spec{Seeds: 200}, func(k *corpus.Kernel) {
		if k.Seed != 0 {
			check(fmt.Sprintf("seed %d", k.Seed), harden.Generate(k.Seed).F)
			check(fmt.Sprintf("seed %d canonical", k.Seed), k.F)
			return
		}
		check(k.Name, k.F)
		k.Cases(func(c *corpus.Case) {
			if c.Err == nil { // a loop the pass refuses; still a shape
				check(c.Name, c.F)
			}
		})
	})
}

func sameBlocks(a, b []*ir.Block) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// allPairsLimit bounds the functions whose every (a, b) pair is asked
// Dominates; on larger ones (a u=8 body reaches the 4096-block cap) every
// block is paired with a spread of 64 others instead.
const allPairsLimit = 256

func checkDomTree(t *testing.T, name string, f *ir.Function, got *analysis.DomTree, want *refDomTree) {
	t.Helper()
	blocks := f.Blocks()
	for _, b := range blocks {
		if g, w := got.Reachable(b), want.Reachable(b); g != w {
			t.Fatalf("%s: Reachable(%s) = %v, reference %v", name, b.Name, g, w)
		}
		if g, w := got.Idom(b), want.Idom(b); g != w {
			t.Fatalf("%s: Idom(%s) = %v, reference %v", name, b.Name, g, w)
		}
		if g, w := got.Children(b), want.Children(b); !sameBlocks(g, w) {
			t.Fatalf("%s: Children(%s) = %v, reference %v", name, b.Name, g, w)
		}
	}
	step := 1
	if len(blocks) > allPairsLimit {
		step = len(blocks) / 64
	}
	for i, a := range blocks {
		for j := i % step; j < len(blocks); j += step {
			b := blocks[j]
			if g, w := got.Dominates(a, b), want.Dominates(a, b); g != w {
				t.Fatalf("%s: Dominates(%s, %s) = %v, reference %v", name, a.Name, b.Name, g, w)
			}
		}
	}
}

// TestDomTreeMatchesReference holds the RPO-numbered dominator and
// post-dominator trees to the map-based ones they replaced.
func TestDomTreeMatchesReference(t *testing.T) {
	shapes := 0
	forEachShape(t, func(name string, f *ir.Function) {
		checkDomTree(t, name+" (dom)", f, analysis.NewDomTree(f), newRefDomTree(f))
		checkDomTree(t, name+" (postdom)", f, analysis.NewPostDomTree(f), newRefPostDomTree(f))
		shapes++
	})
	t.Logf("%d functions, forward and post-dominator trees both", shapes)
}

// TestLoopInfoMatchesReference holds the ID-indexed loop info to the
// map-based one: the same loops under the same IDs, with the same blocks
// and latches in the same order, nested the same way.
func TestLoopInfoMatchesReference(t *testing.T) {
	loops := 0
	forEachShape(t, func(name string, f *ir.Function) {
		got := analysis.NewLoopInfo(f, analysis.NewDomTree(f))
		want := newRefLoopInfo(f, newRefDomTree(f))
		if len(got.Loops) != len(want.Loops) || len(got.Top) != len(want.Top) {
			t.Fatalf("%s: %d loops (%d top), reference %d (%d top)", name,
				len(got.Loops), len(got.Top), len(want.Loops), len(want.Top))
		}
		for i, w := range want.Loops {
			g := got.Loops[i]
			if g.ID != w.ID || g.Header != w.Header || g.Depth() != w.Depth() {
				t.Fatalf("%s: loop %d is #%d at %s depth %d, reference #%d at %s depth %d", name, i,
					g.ID, g.Header.Name, g.Depth(), w.ID, w.Header.Name, w.Depth())
			}
			if !sameBlocks(g.Blocks(), w.blocks) || !sameBlocks(g.Latches(), w.latches) {
				t.Fatalf("%s: loop %d: blocks or latches differ from the reference", name, i)
			}
			if (g.Parent == nil) != (w.Parent == nil) || g.Parent != nil && g.Parent.ID != w.Parent.ID {
				t.Fatalf("%s: loop %d: parent differs from the reference", name, i)
			}
			if len(g.Children) != len(w.Children) {
				t.Fatalf("%s: loop %d: %d children, reference %d", name, i, len(g.Children), len(w.Children))
			}
			for k := range w.Children {
				if g.Children[k].ID != w.Children[k].ID {
					t.Fatalf("%s: loop %d: child %d differs from the reference", name, i, k)
				}
			}
			for _, b := range f.Blocks() {
				if g.Contains(b) != w.Contains(b) {
					t.Fatalf("%s: loop %d: Contains(%s) = %v, reference %v", name, i, b.Name, g.Contains(b), w.Contains(b))
				}
			}
		}
		for i, w := range want.Top {
			if got.Top[i].ID != w.ID {
				t.Fatalf("%s: top loop %d is #%d, reference #%d", name, i, got.Top[i].ID, w.ID)
			}
		}
		for _, b := range f.Blocks() {
			g, w := got.LoopFor(b), want.loopOf[b]
			if (g == nil) != (w == nil) || g != nil && g.ID != w.ID {
				t.Fatalf("%s: LoopFor(%s) differs from the reference", name, b.Name)
			}
		}
		loops += len(want.Loops)
	})
	if loops < 1000 {
		t.Fatalf("only %d loops compared: the corpus lost its loops", loops)
	}
	t.Logf("%d loops agree with the reference", loops)
}

// TestStaleHandlesAnswerLikeMaps pins the contract core.newUnmerger, LICM
// and Loop.ExitBlocks rely on: a tree or loop asked about a block minted
// after it was built answers what a pointer-keyed map would — the block is
// unknown — instead of indexing past its tables.
func TestStaleHandlesAnswerLikeMaps(t *testing.T) {
	corpus.Kernels(corpus.Spec{}, func(k *corpus.Kernel) {
		f := k.F
		dt, pdt := analysis.NewDomTree(f), analysis.NewPostDomTree(f)
		li := analysis.NewLoopInfo(f, dt)
		was := f.NumBlocks()
		for _, l := range li.Loops {
			transform.EnsurePreheader(f, l)
			transform.EnsureLCSSA(f, l)
			new(ir.Cloner).Clone(l.Blocks(), ".stale")
		}
		if f.NumBlocks() == was {
			return
		}
		old := f.Blocks()[0]
		for _, nb := range f.Blocks()[was:] {
			for _, tree := range []*analysis.DomTree{dt, pdt} {
				if tree.Reachable(nb) || tree.Idom(nb) != nil || tree.Children(nb) != nil ||
					tree.Dominates(nb, old) || tree.Dominates(old, nb) || !tree.Dominates(nb, nb) {
					t.Fatalf("%s: a tree built before %s was minted knows it", k.Name, nb.Name)
				}
			}
			if li.LoopFor(nb) != nil {
				t.Fatalf("%s: LoopFor(%s) on stale loop info is not nil", k.Name, nb.Name)
			}
			for _, l := range li.Loops {
				if l.Contains(nb) {
					t.Fatalf("%s: stale %v contains %s", k.Name, l, nb.Name)
				}
			}
		}
		for _, l := range li.Loops {
			l.ExitBlocks()
			l.ExitingBlocks()
			l.Preheader()
		}
	})
}

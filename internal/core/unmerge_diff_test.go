package core_test

import (
	"testing"

	"uu/internal/analysis"
	"uu/internal/bench"
	"uu/internal/core"
	"uu/internal/corpus"
	"uu/internal/ir"
	"uu/internal/pipeline"
	"uu/internal/transform"
)

func loopWithHeader(f *ir.Function, h *ir.Block) *analysis.Loop {
	for _, l := range analysis.NewAnalysisManager(f, new(analysis.Scratch)).LoopInfo().Loops {
		if l.Header == h {
			return l
		}
	}
	return nil
}

// TestMergeSearchMatchesReference pins "same answer, cheaper" for the
// unmerger's merge search: on every loop of the suite and of 500 generated
// kernels, at u = 2, 4 and 8, each search of the duplication fixpoint must
// pick the block the old recursive map-based search picks on the same
// state. The checked run drives the paper's procedure itself (inner loops
// unmerged, target unrolled, body unmerged), so its result is also held
// against the production UnrollAndUnmerge (the corpus's case) to show the
// two did the same work.
func TestMergeSearchMatchesReference(t *testing.T) {
	searches, loops := 0, 0
	corpus.Kernels(corpus.Spec{Seeds: 500}, func(k *corpus.Kernel) {
		k.Cases(func(c *corpus.Case) {
			g := ir.Clone(k.F)
			l := analysis.NewAnalysisManager(g, new(analysis.Scratch)).LoopInfo().LoopByID(c.Loop)
			if l.HasConvergentOp() || l.Latch() == nil {
				if c.Err == nil {
					t.Fatalf("%s: production transformed a loop it must refuse", c.Name)
				}
				return
			}
			checked := func(l *analysis.Loop) {
				searches += core.UnmergeWithOracle(g, l, k.Opts, func(round int, got, want *ir.Block) {
					t.Fatalf("%s: search %d returned %v, reference %v", c.Name, round, got, want)
				})
			}
			header := l.Header
			var inner []*ir.Block // deepest first
			var collect func(x *analysis.Loop)
			collect = func(x *analysis.Loop) {
				for _, ch := range x.Children {
					collect(ch)
					inner = append(inner, ch.Header)
				}
			}
			collect(l)
			for _, h := range inner {
				if il := loopWithHeader(g, h); il != nil {
					checked(il)
				}
			}
			if !transform.UnrollLoop(g, loopWithHeader(g, header), c.U) {
				if c.Err == nil {
					t.Fatalf("%s: production unrolled a loop the checked run could not", c.Name)
				}
				return
			}
			checked(loopWithHeader(g, header))
			if c.Err != nil {
				t.Fatalf("%s: production failed where the checked run did not: %v", c.Name, c.Err)
			}
			if err := ir.Verify(g); err != nil {
				t.Fatalf("%s: %v", c.Name, err)
			}
			if g.String() != c.F.String() {
				t.Fatalf("%s: checked run and UnrollAndUnmerge produced different IR", c.Name)
			}
			loops++
		})
	})
	if loops < 500 || searches < 10*loops {
		t.Fatalf("only %d searches over %d (loop, factor) cases: the corpus no longer reaches the fixpoint's hot shape", searches, loops)
	}
	t.Logf("%d merge searches over %d (loop, factor) cases agree with the reference", searches, loops)
}

// TestUnmergerAdjacencyCurrent unmerges the sweep's worst cell (libor's loop
// 0 unrolled by 8, up to the growth cap) and, after every split, holds the
// compact adjacency the merge search walks to a recomputation from the IR:
// split refreshes only the rows it changed, and a row it forgot would send
// the search down an edge that no longer exists. The search itself must not
// allocate once its buffers have grown.
func TestUnmergerAdjacencyCurrent(t *testing.T) {
	f, err := bench.ByName("libor").CompileKernel()
	if err != nil {
		t.Fatal(err)
	}
	header := pipeline.Canonicalize(f).LoopByID(0).Header
	if !transform.UnrollLoop(f, loopWithHeader(f, header), 8) {
		t.Fatal("libor loop 0 did not unroll")
	}
	for _, opts := range []core.Options{{}, {DirectSuccessorOnly: true}} {
		g := ir.Clone(f)
		var h *ir.Block
		for _, b := range g.Blocks() {
			if b.ID() == header.ID() {
				h = b
			}
		}
		splits, allocs := core.UnmergeAuditingAdjacency(g, loopWithHeader(g, h), opts, func(msg string) { t.Fatal(msg) })
		if err := ir.Verify(g); err != nil {
			t.Fatal(err)
		}
		if splits < 10 || !opts.DirectSuccessorOnly && g.NumBlocks() <= core.DefaultMaxBlocks {
			t.Fatalf("%+v: %d splits, %d blocks: the cell no longer reaches the fixpoint's hot shape", opts, splits, g.NumBlocks())
		}
		if allocs != 0 {
			t.Errorf("%+v: a merge search allocates %.0f times after %d splits, want 0", opts, allocs, splits)
		}
		t.Logf("%+v: adjacency current after each of %d splits (%d blocks)", opts, splits, g.NumBlocks())
	}
}

package core_test

import (
	"fmt"
	"testing"

	"uu/internal/analysis"
	"uu/internal/bench"
	"uu/internal/core"
	"uu/internal/harden"
	"uu/internal/ir"
	"uu/internal/lang"
	"uu/internal/transform"
)

// generatedMaxBlocks caps unmerging of the generated kernels. The search is
// the same at any size, and the reference costs O(blocks) map inserts per
// round over O(blocks) rounds, so the 500 generated kernels stop at an
// eighth of DefaultMaxBlocks; the suite kernels run to the production cap.
const generatedMaxBlocks = 512

// diffKernels is the differential test's input: the 16 suite kernels
// followed by 500 generated ones, canonicalized as the pipeline does before
// its loop transformation.
func diffKernels(t *testing.T) []*ir.Function {
	t.Helper()
	var fs []*ir.Function
	for _, b := range bench.Suite {
		f, err := lang.CompileKernel(b.Source)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		fs = append(fs, f)
	}
	for seed := int64(1); seed <= 500; seed++ {
		fs = append(fs, harden.Generate(seed).F)
	}
	for _, f := range fs {
		transform.Mem2Reg(f)
		transform.SimplifyCFG(f)
		transform.InstSimplify(f)
		transform.DCE(f)
	}
	return fs
}

func loopWithHeader(f *ir.Function, h *ir.Block) *analysis.Loop {
	for _, l := range analysis.NewAnalysisManager(f).LoopInfo().Loops {
		if l.Header == h {
			return l
		}
	}
	return nil
}

// TestMergeSearchMatchesReference pins "same answer, cheaper" for the
// unmerger's merge search: on every loop of every kernel, at u = 2, 4 and 8,
// each search of the duplication fixpoint must pick the block the old
// recursive map-based search picks on the same state. The checked run
// drives the paper's procedure itself (inner loops unmerged, target
// unrolled, body unmerged), so its result is also held against the
// production UnrollAndUnmerge to show the two did the same work.
func TestMergeSearchMatchesReference(t *testing.T) {
	searches, loops := 0, 0
	for i, f := range diffKernels(t) {
		opts := core.Options{}
		if i >= len(bench.Suite) {
			opts.MaxBlocks = generatedMaxBlocks
		}
		nLoops := len(analysis.NewAnalysisManager(f).LoopInfo().Loops)
		for id := 0; id < nLoops; id++ {
			for _, u := range []int{2, 4, 8} {
				name := fmt.Sprintf("%s loop %d u=%d", f.Name, id, u)
				prod := ir.Clone(f)
				_, prodErr := core.UnrollAndUnmerge(prod, id, u, opts)

				g := ir.Clone(f)
				l := analysis.NewAnalysisManager(g).LoopInfo().LoopByID(id)
				if l.HasConvergentOp() || l.Latch() == nil {
					if prodErr == nil {
						t.Fatalf("%s: production transformed a loop it must refuse", name)
					}
					continue
				}
				checked := func(l *analysis.Loop) {
					searches += core.UnmergeWithOracle(g, l, opts, func(round int, got, want *ir.Block) {
						t.Fatalf("%s: search %d returned %v, reference %v", name, round, got, want)
					})
				}
				header := l.Header
				var inner []*ir.Block // deepest first
				var collect func(x *analysis.Loop)
				collect = func(x *analysis.Loop) {
					for _, c := range x.Children {
						collect(c)
						inner = append(inner, c.Header)
					}
				}
				collect(l)
				for _, h := range inner {
					if il := loopWithHeader(g, h); il != nil {
						checked(il)
					}
				}
				if !transform.UnrollLoop(g, loopWithHeader(g, header), u) {
					if prodErr == nil {
						t.Fatalf("%s: production unrolled a loop the checked run could not", name)
					}
					continue
				}
				checked(loopWithHeader(g, header))
				if prodErr != nil {
					t.Fatalf("%s: production failed where the checked run did not: %v", name, prodErr)
				}
				if err := ir.Verify(g); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if g.String() != prod.String() {
					t.Fatalf("%s: checked run and UnrollAndUnmerge produced different IR", name)
				}
				loops++
			}
		}
	}
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
	f, err := lang.CompileKernel(bench.ByName("libor").Source)
	if err != nil {
		t.Fatal(err)
	}
	transform.Mem2Reg(f)
	transform.SimplifyCFG(f)
	transform.InstSimplify(f)
	transform.DCE(f)
	header := analysis.NewAnalysisManager(f).LoopInfo().LoopByID(0).Header
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

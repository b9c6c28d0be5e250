package core_test

import (
	"testing"

	"uu/internal/analysis"
	"uu/internal/core"
	"uu/internal/corpus"
)

// TestUUBuildsAPathTree holds the u&u contract of the paper's Section III on
// every corpus case core.UnrollAndUnmerge accepts: the unrolled, unmerged
// body is a path tree. No block of the loop but its header has two in-loop
// predecessors (blocks of inner loops, which are only unmerged, are not
// looked at), and there is one latch per combination of paths, CountPaths^u.
// Unmerging stops at the block cap and leaves merges behind; a case that is
// not a path tree must be over the cap. The corpus transforms in the
// default mode only: the selective and direct-successor modes leave merges
// on purpose.
func TestUUBuildsAPathTree(t *testing.T) {
	exact, capped := 0, 0
	corpus.Kernels(corpus.Spec{Seeds: 300}, func(k *corpus.Kernel) {
		maxBlocks := k.Opts.MaxBlocks
		if maxBlocks == 0 {
			maxBlocks = core.DefaultMaxBlocks
		}
		k.Cases(func(c *corpus.Case) {
			if c.Err != nil {
				return
			}
			orig := k.Loops.LoopByID(c.Loop)
			wantLatches := pow(analysis.CountPaths(orig), c.U)
			header := c.F.BlockByName(orig.Header.Name)
			li := analysis.NewAnalysisManager(c.F, new(analysis.Scratch)).LoopInfo()
			var l *analysis.Loop
			for _, x := range li.Loops {
				if x.Header == header {
					l = x
				}
			}
			if l == nil {
				t.Fatalf("%s: no loop is headed by %s after u&u", c.Name, orig.Header.Name)
			}
			var merge string
			for _, b := range l.Blocks() {
				if b == header || li.LoopFor(b) != l {
					continue
				}
				in := 0
				for _, p := range b.Preds() {
					if l.Contains(p) {
						in++
					}
				}
				if in > 1 {
					merge = b.Name
					break
				}
			}
			latches := len(l.Latches())
			if merge == "" && latches == wantLatches {
				exact++
				return
			}
			if c.F.NumBlocks() <= maxBlocks {
				t.Errorf("%s: not a path tree below the block cap (%d of %d blocks): merge block %q, %d latches, want %d",
					c.Name, c.F.NumBlocks(), maxBlocks, merge, latches, wantLatches)
			}
			capped++
		})
	})
	t.Logf("%d path trees, %d cases stopped at the block cap", exact, capped)
	if exact == 0 || capped == 0 {
		t.Fatalf("corpus reached %d path trees and %d capped cases, want both", exact, capped)
	}
}

// pow is p^u, saturating past any latch count a function under the block
// cap can have.
func pow(p, u int) int {
	r := 1
	for range u {
		if r > 1<<30 {
			return r
		}
		r *= p
	}
	return r
}

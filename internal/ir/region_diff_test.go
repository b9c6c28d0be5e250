package ir_test

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

// TestCloneRegionMatchesReference pins "same copy, exact lists" for
// Cloner.Clone: on every region the unroller and the unmerger copy while u&u
// transforms every loop of the 16 suite kernels and of 200 generated ones at
// u = 2, 4 and 8, the function must come out with the Fingerprint —
// instruction and block IDs, use-list and predecessor-list order included —
// that the append-and-remap copy (refCloneRegion) leaves on a copy of it, and
// the Cloner must name the same clones. The check copies and hashes the
// whole function per region, so unmerging stops at 1 024 blocks on the suite
// (16 743 regions in 5 s; the production cap's 25 117 took 22 s) and at 512
// on the generated kernels.
func TestCloneRegionMatchesReference(t *testing.T) {
	var what string
	regions := 0
	var ref *ir.Function // the reference's copy, rewritten for every region
	var byID []*ir.Block
	defer ir.SetCloneHook(func(c *ir.Cloner, blocks []*ir.Block, suffix string) func() {
		f := blocks[0].Func()
		ref = ir.CloneInto(ref, f)
		byID = append(byID[:0], make([]*ir.Block, ref.BlockIDBound())...)
		for _, b := range ref.Blocks() {
			byID[b.ID()] = b
		}
		refRegion := make([]*ir.Block, len(blocks))
		for i, b := range blocks {
			refRegion[i] = byID[b.ID()]
		}
		blockOf, instrOf := ir.RefCloneRegion(refRegion, suffix)
		return func() {
			regions++
			if ir.Fingerprint(f) != ir.Fingerprint(ref) {
				t.Fatalf("%s: copying %d blocks from %s as %q left a function the reference copy does not:\n--- got\n%s\n--- want\n%s",
					what, len(blocks), blocks[0].Name, suffix, f, ref)
			}
			for i, b := range blocks {
				if got, want := c.Block(b).ID(), blockOf[refRegion[i]].ID(); got != want {
					t.Fatalf("%s: %s's clone is block %d, the reference's %d", what, b.Name, got, want)
				}
				for j, in := range b.Instrs() {
					if got, want := c.Value(in).(*ir.Instr).ID(), instrOf[refRegion[i].Instrs()[j]].ID(); got != want {
						t.Fatalf("%s: %s's clone is %%t%d, the reference's %%t%d", what, in.Ref(), got, want)
					}
				}
			}
		}
	})()
	var fs []*ir.Function
	for _, b := range bench.Suite {
		f, err := lang.CompileKernel(b.Source)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		fs = append(fs, f)
	}
	for seed := int64(1); seed <= 200; seed++ {
		fs = append(fs, harden.Generate(seed).F)
	}
	cases := 0
	for i, f := range fs {
		transform.Mem2Reg(f)
		transform.SimplifyCFG(f)
		transform.InstSimplify(f)
		transform.DCE(f)
		opts := core.Options{MaxBlocks: 1024}
		if i >= len(bench.Suite) {
			opts.MaxBlocks = 512
		}
		nLoops := len(analysis.NewAnalysisManager(f).LoopInfo().Loops)
		for id := 0; id < nLoops; id++ {
			for _, u := range []int{2, 4, 8} {
				what = fmt.Sprintf("%s loop %d u=%d", f.Name, id, u)
				if _, err := core.UnrollAndUnmerge(ir.Clone(f), id, u, opts); err == nil {
					cases++
				}
			}
		}
	}
	if cases < 300 || regions < 10*cases {
		t.Fatalf("%d regions over %d transformed (loop, factor) cases: the corpus no longer reaches the copies' hot shape", regions, cases)
	}
	t.Logf("%d region copies over %d (loop, factor) cases match the reference", regions, cases)
}

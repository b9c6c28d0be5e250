package ir_test

import (
	"fmt"
	"testing"

	"uu/internal/corpus"
	"uu/internal/ir"
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
	var bad string // the first region of the current case that differs
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
			if bad != "" {
				return
			}
			if ir.Fingerprint(f) != ir.Fingerprint(ref) {
				bad = fmt.Sprintf("copying %d blocks from %s as %q left a function the reference copy does not:\n--- got\n%s\n--- want\n%s",
					len(blocks), blocks[0].Name, suffix, f, ref)
				return
			}
			for i, b := range blocks {
				if got, want := c.Block(b).ID(), blockOf[refRegion[i]].ID(); got != want {
					bad = fmt.Sprintf("%s's clone is block %d, the reference's %d", b.Name, got, want)
					return
				}
				for j, in := range b.Instrs() {
					if got, want := c.Value(in).(*ir.Instr).ID(), instrOf[refRegion[i].Instrs()[j]].ID(); got != want {
						bad = fmt.Sprintf("%s's clone is %%t%d, the reference's %%t%d", in.Ref(), got, want)
						return
					}
				}
			}
		}
	})()
	cases := 0
	corpus.Kernels(corpus.Spec{Seeds: 200, MaxBlocks: 1024}, func(k *corpus.Kernel) {
		k.Cases(func(c *corpus.Case) {
			if bad != "" {
				t.Fatalf("%s: %s", c.Name, bad)
			}
			if c.Err == nil {
				cases++
			}
		})
	})
	if cases < 300 || regions < 10*cases {
		t.Fatalf("%d regions over %d transformed (loop, factor) cases: the corpus no longer reaches the copies' hot shape", regions, cases)
	}
	t.Logf("%d region copies over %d (loop, factor) cases match the reference", regions, cases)
}

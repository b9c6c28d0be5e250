package analysis_test

import (
	"testing"

	"uu/internal/analysis"
	"uu/internal/corpus"
)

// TestAnalysisRebuildAllocatesNothing holds the manager to building in the
// Scratch it was given: once a manager has built a function's trees, a
// rebuild after InvalidateAll overwrites them in the storage the first
// build left, and allocates nothing.
func TestAnalysisRebuildAllocatesNothing(t *testing.T) {
	n := 0
	corpus.Kernels(corpus.Spec{Seeds: 200, EdgeCases: true}, func(k *corpus.Kernel) {
		am := analysis.NewAnalysisManager(k.F, new(analysis.Scratch))
		am.LoopInfo()
		if allocs := testing.AllocsPerRun(5, func() {
			am.InvalidateAll()
			am.LoopInfo()
		}); allocs != 0 {
			t.Errorf("%s: a warm rebuild of its dominator tree and loop info allocated %.1f times", k.Name, allocs)
		}
		n++
	})
	t.Logf("%d kernels rebuilt", n)
}

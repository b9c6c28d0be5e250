package ir_test

import (
	"fmt"
	"strings"
	"testing"

	"uu/internal/codegen"
	"uu/internal/corpus"
	"uu/internal/ir"
	"uu/internal/pipeline"
)

// TestRecyclingIsInvisible: a compile carved from the store another
// kernel's compile released must equal one carved from fresh storage. Every
// corpus kernel is compiled under each configuration once in fresh storage,
// then right after its predecessor in corpus order and right after its
// successor, each of which was released; the IR text, the Fingerprint and
// the VPTX must be byte-identical.
func TestRecyclingIsInvisible(t *testing.T) {
	configs := []pipeline.Options{
		{Config: pipeline.Baseline},
		{Config: pipeline.UnrollOnly, LoopID: 0, Factor: 2},
		{Config: pipeline.UnmergeOnly, LoopID: 0},
		{Config: pipeline.UU, LoopID: 0, Factor: 4},
		{Config: pipeline.UUHeuristic},
	}
	var kernels []*corpus.Kernel
	corpus.Kernels(corpus.Spec{Seeds: 100, EdgeCases: true}, func(k *corpus.Kernel) { kernels = append(kernels, k) })
	for _, opts := range configs {
		fresh := make([]string, len(kernels))
		for i, k := range kernels {
			ir.DrainFreeStores()
			fresh[i] = compileAndRelease(k.F, opts)
		}
		check := func(i int, after string) {
			if got := compileAndRelease(kernels[i].F, opts); got != fresh[i] {
				t.Fatalf("%s %s after %s: recycled compile differs from the fresh one:\n%s\nfresh:\n%s",
					kernels[i].Name, opts.Config, after, got, fresh[i])
			}
		}
		ir.DrainFreeStores()
		for i := range kernels {
			check(i, "its predecessor")
		}
		ir.DrainFreeStores()
		for i := len(kernels) - 1; i >= 0; i-- {
			check(i, "its successor")
		}
	}
	t.Logf("%d kernels, %d configurations", len(kernels), len(configs))
}

// compileAndRelease compiles a copy of f under opts as bench.Run does and
// returns its IR, Fingerprint, VPTX and error before releasing it.
func compileAndRelease(f *ir.Function, opts pipeline.Options) string {
	g := ir.Clone(f)
	defer ir.Release(g)
	var sb strings.Builder
	_, err := pipeline.Optimize(g, opts)
	fmt.Fprintf(&sb, "%s%x\n", g, ir.Fingerprint(g))
	if err == nil {
		var prog *codegen.Program
		if prog, err = codegen.Lower(g); err == nil {
			sb.WriteString(prog.String())
		}
	}
	fmt.Fprintf(&sb, "err %v\n", err)
	return sb.String()
}

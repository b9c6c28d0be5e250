package fuzz

import (
	"testing"

	"uu/internal/harden"
	"uu/internal/ir"
	"uu/internal/pipeline"
)

// FuzzPipelineDifferential is the native-fuzzing entry point: every input
// becomes a generator seed, and the kernel it determines runs through the
// full differential matrix under every pipeline configuration with
// containment and verify-each enabled. Any contained pass failure or output
// divergence fails the run. Seeds that merely make the pipeline refuse
// (e.g. an un-unrollable loop) are fine — refusal is an error return, not
// a miscompile.
func FuzzPipelineDifferential(f *testing.F) {
	for _, s := range []int64{1, 17, 42, 101, 1 << 40} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		k := harden.Generate(seed)
		loops := len(pipeline.Canonicalize(ir.Clone(k.F)).Loops)
		for _, cfg := range pipeline.Configs {
			opts := pipeline.Options{Config: cfg, VerifyEachPass: true, Contain: true}
			switch cfg {
			case pipeline.UnrollOnly, pipeline.UnmergeOnly, pipeline.UU:
				if loops == 0 {
					continue
				}
				opts.LoopID = int(((seed % int64(loops)) + int64(loops)) % int64(loops))
				opts.Factor = 2
			}
			div, stats, err := check(k.F, k, opts, nil)
			if err != nil {
				t.Fatalf("seed %d config %s: %v", seed, cfg, err)
			}
			if stats != nil && len(stats.Failures) > 0 {
				t.Fatalf("seed %d config %s: contained pass failure: %v", seed, cfg, stats.Failures[0].String())
			}
			if div != nil && div.Stage != "optimize" {
				t.Fatalf("miscompile: %s", div.String())
			}
		}
	})
}

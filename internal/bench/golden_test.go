package bench

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"uu/internal/core"
	"uu/internal/pipeline"
)

// updateGolden regenerates the golden VPTX files instead of comparing:
//
//	go test ./internal/bench -run TestGoldenVPTX -update-golden
//
// The files under testdata/golden were captured from the pre-refactor
// (seed) pipeline; the pass-manager refactor must reproduce them byte for
// byte. Only regenerate them for an intentional, reviewed change to the
// optimization pipeline's output.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden from the current pipeline")

// goldenCases enumerates the 16 kernels x 6 configurations the equivalence
// test covers. The per-loop configurations (unroll, unmerge, uu) address
// loop 0 with factor 2 — every benchmark has at least one loop, and loop 0
// exists for all of them. Configurations that fail to apply record the
// error text instead of VPTX, so "this loop is untransformable" is part of
// the golden contract too.
//
// Every case runs with the crash-containment guard and per-pass verifier
// enabled: the corpora were captured without them, so matching byte for
// byte proves the guard's snapshot/verify/rollback machinery is invisible
// on the healthy path.
func goldenCases() []pipeline.Options {
	return []pipeline.Options{
		{Config: pipeline.Baseline, Contain: true, VerifyEachPass: true},
		{Config: pipeline.UnrollOnly, LoopID: 0, Factor: 2, Contain: true, VerifyEachPass: true},
		{Config: pipeline.UnmergeOnly, LoopID: 0, Contain: true, VerifyEachPass: true},
		{Config: pipeline.UU, LoopID: 0, Factor: 2, Contain: true, VerifyEachPass: true},
		{Config: pipeline.UUHeuristic, Contain: true, VerifyEachPass: true},
		// Selective mode: the heuristic with the benefit-predictor unmerge,
		// the paper's §VI "unmerge only profitable merges" promoted from
		// ablation to first-class (core.Options.Selective).
		{Config: pipeline.UUHeuristic, Unmerge: core.Options{Selective: true},
			Contain: true, VerifyEachPass: true},
	}
}

func goldenName(app string, opts pipeline.Options) string {
	switch opts.Config {
	case pipeline.Baseline, pipeline.UUHeuristic:
		if opts.Unmerge.Selective {
			return fmt.Sprintf("%s_%s-selective.vptx", app, opts.Config)
		}
		return fmt.Sprintf("%s_%s.vptx", app, opts.Config)
	default:
		return fmt.Sprintf("%s_%s_l%d_u%d.vptx", app, opts.Config, opts.LoopID, opts.Factor)
	}
}

// goldenCompile produces the golden file content for one (app, config) cell:
// the VPTX text, or a SKIP line holding the pipeline error.
func goldenCompile(b *Benchmark, opts pipeline.Options) string {
	cr, err := Compile(b, opts)
	if err != nil {
		return fmt.Sprintf("SKIP: %v\n", err)
	}
	return cr.Program.String()
}

func TestGoldenVPTX(t *testing.T) {
	dir := filepath.Join("testdata", "golden")
	if *updateGolden {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range Suite {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			for _, opts := range goldenCases() {
				name := goldenName(b.Name, opts)
				got := goldenCompile(b, opts)
				path := filepath.Join(dir, name)
				if *updateGolden {
					if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden %s (run with -update-golden to capture): %v", name, err)
				}
				if got != string(want) {
					t.Errorf("%s: VPTX differs from golden %s (%d vs %d bytes)",
						b.Name, name, len(got), len(want))
				}
			}
		})
	}
}

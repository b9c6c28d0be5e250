// Bezier walk-through: the paper's Listing 2 / Figure 5 example. Once
// kn > 1 or nkn > 1 evaluates to false it stays false, so after
// unroll-and-unmerge the re-evaluation folds away on those paths. This
// example prints the per-path structure and the dynamic comparison counts.
//
//	go run ./examples/bezier
package main

import (
	"fmt"
	"log"
	"strings"

	"uu/internal/interp"
	"uu/internal/ir"
	"uu/internal/lang"
	"uu/internal/pipeline"
)

const src = `
kernel bezier_blend(double* restrict out, long nn0, long kn0, long nkn0) {
  long nn = nn0;
  long kn = kn0;
  long nkn = nkn0;
  double blend = 1.0;
  while (nn >= 1) {
    blend *= (double)nn;
    nn--;
    if (kn > 1) {
      blend /= (double)kn;
      kn--;
    }
    if (nkn > 1) {
      blend /= (double)nkn;
      nkn--;
    }
  }
  out[0] = blend;
}
`

func main() {
	fmt.Println("=== Listing 2: the bezier-surface loop ===")
	fmt.Print(src)

	build := func(opts pipeline.Options) *ir.Function {
		f, err := lang.CompileKernel(src)
		if err != nil {
			log.Fatalf("compile: %v", err)
		}
		if _, err := pipeline.Optimize(f, opts); err != nil {
			log.Fatalf("pipeline %s: %v", opts.Config, err)
		}
		return f
	}
	baseline := build(pipeline.Options{Config: pipeline.Baseline})
	uu := build(pipeline.Options{Config: pipeline.UU, LoopID: 0, Factor: 2})

	countSGT := func(f *ir.Function) int {
		n := 0
		for _, b := range f.Blocks() {
			for _, in := range b.Instrs() {
				if in.Op == ir.OpICmp && in.Pred == ir.SGT {
					n++
				}
			}
		}
		return n
	}
	fmt.Println("=== Figure 5 analogue ===")
	fmt.Printf("baseline:  %d blocks, %d static kn/nkn tests\n",
		baseline.NumBlocks(), countSGT(baseline))
	fmt.Printf("u&u (u=2): %d blocks, %d static kn/nkn tests\n",
		uu.NumBlocks(), countSGT(uu))
	fmt.Println("u&u loop headers and their path provenance (block name suffixes")
	fmt.Println("encode which duplicated path each copy belongs to):")
	for _, b := range uu.Blocks() {
		if strings.Contains(b.Name, ".u1") || strings.Contains(b.Name, ".d") {
			hasTest := false
			for _, in := range b.Instrs() {
				if in.Op == ir.OpICmp && in.Pred == ir.SGT {
					hasTest = true
				}
			}
			if strings.HasPrefix(b.Name, "while.cond") || strings.HasPrefix(b.Name, "if") {
				fmt.Printf("  %-28s re-tests a condition: %v\n", b.Name, hasTest)
			}
		}
	}

	// Dynamic comparison counts: once the conditions turn false, the FF path
	// runs compare-free (the Figure 5 elimination).
	dynamic := func(f *ir.Function) (int64, float64) {
		ctr := &interp.Counters{Ops: map[ir.Op]int64{}}
		mem := interp.NewMemory(8)
		args := []interp.Value{interp.IntVal(0), interp.IntVal(40), interp.IntVal(4), interp.IntVal(7)}
		if _, err := interp.RunCounted(f, args, mem, interp.Env{}, ctr); err != nil {
			log.Fatalf("interp: %v", err)
		}
		return ctr.Ops[ir.OpICmp], mem.F64(0, 0)
	}
	bCmps, bResult := dynamic(baseline)
	uCmps, uResult := dynamic(uu)
	fmt.Printf("\ndynamic compares for blend(40, 4, 7): baseline=%d, u&u=%d (-%0.f%%)\n",
		bCmps, uCmps, 100*float64(bCmps-uCmps)/float64(bCmps))
	if bResult != uResult {
		log.Fatalf("results differ: %v vs %v", bResult, uResult)
	}
	fmt.Printf("identical result: %g\n", uResult)
}

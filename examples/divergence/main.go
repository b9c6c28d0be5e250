// Divergence walk-through: the paper's `complex` outlier (Listing 7 and
// Section V). The loop's `n & 1` condition depends on the thread id, so the
// baseline's predicated code runs at full warp efficiency while u&u's
// unmerged paths diverge for long stretches — and the slowdown grows with
// the unroll factor as the path tree (and its instruction-cache footprint)
// explodes.
//
//	go run ./examples/divergence
package main

import (
	"context"
	"fmt"
	"log"

	"uu/internal/analysis"
	"uu/internal/bench"
	"uu/internal/core"
	"uu/internal/gpusim"
	"uu/internal/pipeline"
)

func main() {
	b := bench.ByName("complex")
	w := b.NewWorkload()
	dev := gpusim.V100()

	fmt.Println("=== Listing 7: the complex loop ===")
	fmt.Print(b.Source)

	// The divergence analysis the paper proposes as future work flags this
	// loop: its branch condition is tainted by the thread id. (The analysis
	// runs on the canonical form the loop IDs are numbered on: taint does not
	// flow through allocas.)
	f := b.Kernel()
	li := pipeline.Canonicalize(f)
	div := analysis.NewDivergence(f)
	for _, l := range li.Loops {
		fmt.Printf("loop #%d (header %s): divergent branch inside = %v\n",
			l.ID, l.Header.Name, div.LoopHasDivergentBranch(l))
	}
	// With SkipDivergent (the paper's proposed taint extension), the
	// heuristic leaves the loop alone.
	params := core.DefaultHeuristicParams()
	plainDecisions, _ := core.HeuristicDecide(f, params)
	params.SkipDivergent = true
	taintDecisions, _ := core.HeuristicDecide(f, params)
	fmt.Printf("heuristic selections: published heuristic=%d, with divergence taint (paper's §V proposal)=%d\n\n",
		len(plainDecisions), len(taintDecisions))

	ref, err := bench.Reference(b, w)
	if err != nil {
		log.Fatalf("reference: %v", err)
	}
	run := func(opts pipeline.Options) *bench.RunRecord {
		rec, err := bench.Run(context.Background(), bench.Job{Name: b.Name, Kernel: b.CompileKernel, Workload: w,
			Options: opts, Device: dev, Want: ref})
		if err != nil {
			log.Fatal(err)
		}
		return rec
	}
	base := run(pipeline.Options{Config: pipeline.Baseline})
	fmt.Printf("%-10s time=%.5f ms  warp_eff=%6.2f%%  stall_fetch=%5.2f%%  code=%d B\n",
		"baseline", base.Millis, base.Metrics.WarpExecutionEfficiency(dev)*100,
		base.Metrics.StallInstFetchPct()*100, base.CodeBytes)

	for _, u := range []int{2, 4, 8} {
		rec := run(pipeline.Options{Config: pipeline.UU, LoopID: 0, Factor: u})
		fmt.Printf("u&u u=%-4d time=%.5f ms  warp_eff=%6.2f%%  stall_fetch=%5.2f%%  code=%d B  (speedup %.3fx)\n",
			u, rec.Millis, rec.Metrics.WarpExecutionEfficiency(dev)*100,
			rec.Metrics.StallInstFetchPct()*100, rec.CodeBytes, rec.Speedup(base))
	}
	fmt.Println("\nAs in the paper: warp execution efficiency collapses, instruction")
	fmt.Println("fetch stalls blow up, and the slowdown grows with the unroll factor.")
}

// Binary search walk-through: reproduces the paper's XSBench analysis
// (Listings 1, 3, 4, 5 and the Section V counters). It shows how the
// baseline pipeline predicates the loop body into selp instructions, how
// unroll-and-unmerge replaces them with branches while deleting the
// subtraction and data movement, and what that does to the simulator's
// nvprof-style counters.
//
//	go run ./examples/binarysearch
package main

import (
	"context"
	"fmt"
	"log"

	"uu/internal/bench"
	"uu/internal/codegen"
	"uu/internal/gpusim"
	"uu/internal/pipeline"
)

func main() {
	b := bench.ByName("xsbench")
	w := b.NewWorkload()
	dev := gpusim.V100()

	fmt.Println("=== Listing 1: the binary search loop (MiniCU) ===")
	fmt.Print(b.Source)

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
	uu := run(pipeline.Options{Config: pipeline.UU, LoopID: 0, Factor: 2})

	fmt.Println("=== Listing 4 analogue: baseline VPTX uses selp (predication) ===")
	fmt.Printf("baseline: %d selp, %d conditional branches, %d instructions\n",
		base.Program.CountKind(codegen.KSelp), base.Program.CountKind(codegen.KCondBra),
		base.Program.NumInstrs())
	fmt.Println("=== Listing 5 analogue: u&u replaces selects with branches ===")
	fmt.Printf("u&u (u=2): %d selp, %d conditional branches, %d instructions\n\n",
		uu.Program.CountKind(codegen.KSelp), uu.Program.CountKind(codegen.KCondBra),
		uu.Program.NumInstrs())
	baseM, uuM := base.Metrics, uu.Metrics
	fmt.Println("both configurations verified against the reference interpreter")

	fmt.Println("\n=== Section V counters (baseline -> u&u) ===")
	fmt.Printf("inst_misc            %8d -> %8d (%.0f%%)\n",
		baseM.ClassThread[codegen.ClassMisc], uuM.ClassThread[codegen.ClassMisc],
		100*float64(uuM.ClassThread[codegen.ClassMisc]-baseM.ClassThread[codegen.ClassMisc])/float64(baseM.ClassThread[codegen.ClassMisc]))
	fmt.Printf("warp_exec_efficiency %7.2f%% -> %7.2f%%\n",
		baseM.WarpExecutionEfficiency(dev)*100, uuM.WarpExecutionEfficiency(dev)*100)
	fmt.Printf("IPC                  %8.3f -> %8.3f\n", baseM.IPC(), uuM.IPC())
	fmt.Printf("kernel time          %.5f ms -> %.5f ms (speedup %.3fx)\n",
		baseM.KernelMillis(dev), uuM.KernelMillis(dev),
		baseM.KernelMillis(dev)/uuM.KernelMillis(dev))
}

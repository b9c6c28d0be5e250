// Quickstart: describe a small CUDA-like kernel and its launch, run it
// through the baseline -O3 pipeline and through unroll-and-unmerge on the
// SIMT simulator (bench.Run), check both against the reference interpreter,
// and compare kernel time and counters.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"uu/internal/bench"
	"uu/internal/codegen"
	"uu/internal/gpusim"
	"uu/internal/interp"
	"uu/internal/pipeline"
)

// A toy kernel with the shape the paper targets: a loop whose body branches
// on loop-carried state, so unmerging exposes the provenance of each
// condition to later iterations.
const src = `
kernel decay(double* restrict out, long n, long k0) {
  long gid = (long)global_id();
  if (gid >= n) { return; }
  double acc = 1.0 + (double)gid * 0.001;
  long k = k0;
  while (k >= 1) {
    acc *= 1.0001;
    if (k > 3) {
      acc *= 0.5;
      k -= 2;
    } else {
      acc += 0.25;
      k--;
    }
  }
  out[gid] = acc;
}
`

func main() {
	const n = 1024
	dev := gpusim.V100()
	// The kernel and what it runs on: the arguments (out at byte 0, n, k0),
	// the memory, the launch, and the output region the results are
	// checked in.
	b := &bench.Benchmark{Name: "decay", Source: src}
	w := &bench.Workload{
		Args:    []interp.Value{interp.IntVal(0), interp.IntVal(n), interp.IntVal(40)},
		MemSize: 8 * n,
		Launch:  gpusim.Launch{GridDim: n / 128, BlockDim: 128},
		Outputs: []bench.Region{{Name: "out", Base: 0, Count: n, Elem: "f64"}},
	}
	// The transformation must not change results: every run is checked
	// against the unoptimized kernel on the reference interpreter.
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
		fmt.Printf("%-12s  time=%.5f ms  thread-instrs=%-8d inst_misc=%-7d code=%d B\n",
			opts.Config, rec.Millis, rec.Metrics.ThreadInstrs,
			rec.Metrics.ClassThread[codegen.ClassMisc], rec.CodeBytes)
		return rec
	}

	fmt.Println("config        metrics")
	base := run(pipeline.Options{Config: pipeline.Baseline})
	uu := run(pipeline.Options{Config: pipeline.UU, LoopID: 0, Factor: 4})
	fmt.Printf("\nresults identical; u&u speedup over baseline: %.3fx\n", uu.Speedup(base))
}

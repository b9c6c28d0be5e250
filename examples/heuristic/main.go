// Heuristic walk-through: sweeps the paper's two heuristic parameters — the
// size budget c and the maximum unroll factor u_max (Section III-C, defaults
// c=1024, u_max=8) — over a few applications, showing which loops get picked
// at which factors and what that does to speedup and code size. Also shows
// the §V taint extension (skip loops with thread-id-dependent branches).
//
//	go run ./examples/heuristic
package main

import (
	"context"
	"fmt"
	"log"

	"uu/internal/bench"
	"uu/internal/core"
	"uu/internal/gpusim"
	"uu/internal/pipeline"
)

func main() {
	apps := []string{"bezier-surface", "complex", "rainflow", "xsbench"}
	dev := gpusim.V100()

	fmt.Println("heuristic parameter sweep (speedup over baseline / code bytes):")
	fmt.Printf("%-16s %10s", "app", "baseline")
	type setting struct {
		name   string
		params core.HeuristicParams
	}
	settings := []setting{
		{"c=256,u4", core.HeuristicParams{C: 256, UMax: 4}},
		{"c=1024,u8*", core.HeuristicParams{C: 1024, UMax: 8}}, // the paper's setting
		{"c=8192,u8", core.HeuristicParams{C: 8192, UMax: 8}},
		{"taint", core.HeuristicParams{C: 1024, UMax: 8, SkipDivergent: true}},
	}
	for _, s := range settings {
		fmt.Printf(" %18s", s.name)
	}
	fmt.Println()

	for _, app := range apps {
		b := bench.ByName(app)
		w := b.NewWorkload()
		ref, err := bench.Reference(b, w)
		if err != nil {
			log.Fatalf("%s reference: %v", app, err)
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
		fmt.Printf("%-16s %7.4fms", app, base.Millis)
		for _, s := range settings {
			rec := run(pipeline.Options{Config: pipeline.UUHeuristic, Heuristic: s.params})
			factor := "-"
			if len(rec.Stats.Decisions) > 0 {
				factor = fmt.Sprintf("u%d", rec.Stats.Decisions[0].Factor)
			}
			fmt.Printf(" %7.3fx/%6dB %-3s",
				rec.Speedup(base), rec.CodeBytes, factor)
		}
		fmt.Println()
	}
	fmt.Println("\n(*) the paper's published setting. The taint extension avoids")
	fmt.Println("complex's slowdown by deselecting its thread-id-dependent loop —")
	fmt.Println("but, being a conservative taint (loads from thread-indexed")
	fmt.Println("addresses count as divergent), it also gives up rainflow's and")
	fmt.Println("xsbench's data-dependent wins. bezier-surface, whose conditions")
	fmt.Println("are uniform arithmetic, keeps its speedup.")
}

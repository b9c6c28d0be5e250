package uu_test

import (
	"fmt"
	"io"
	"os"
	"sync"
	"testing"

	"uu/internal/bench"
	"uu/internal/gpusim"
	"uu/internal/interp"
	"uu/internal/pipeline"
)

// The full experiment sweep (16 applications x 5 configurations x unroll
// factors 2/4/8, one loop at a time) backs every table and figure. It runs
// once and is shared by all benchmarks below.
var (
	sweepOnce sync.Once
	sweepRes  *bench.Results
	sweepErr  error
)

func sweep(b *testing.B) *bench.Results {
	sweepOnce.Do(func() {
		sweepRes, sweepErr = bench.RunExperiments(bench.HarnessOptions{
			Factors:  []int{2, 4, 8},
			Progress: io.Discard,
		})
	})
	if sweepErr != nil {
		b.Fatalf("sweep: %v", sweepErr)
	}
	return sweepRes
}

// BenchmarkTable1 regenerates Table I (benchmark overview with baseline and
// heuristic kernel times).
func BenchmarkTable1(b *testing.B) {
	res := sweep(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bench.WriteTable1(io.Discard, res)
	}
	b.StopTimer()
	bench.WriteTable1(os.Stdout, res)
}

// BenchmarkFig6a regenerates Figure 6a (u&u and heuristic speedup over
// baseline per loop and unroll factor).
func BenchmarkFig6a(b *testing.B) {
	res := sweep(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bench.WriteFig6a(io.Discard, res)
	}
	b.StopTimer()
	bench.WriteFig6a(os.Stdout, res)
}

// BenchmarkFig6b regenerates Figure 6b (code size increase over baseline).
func BenchmarkFig6b(b *testing.B) {
	res := sweep(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bench.WriteFig6b(io.Discard, res)
	}
	b.StopTimer()
	bench.WriteFig6b(os.Stdout, res)
}

// BenchmarkFig6c regenerates Figure 6c (compile time increase over baseline).
func BenchmarkFig6c(b *testing.B) {
	res := sweep(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bench.WriteFig6c(io.Discard, res)
	}
	b.StopTimer()
	bench.WriteFig6c(os.Stdout, res)
}

// BenchmarkFig7 regenerates Figure 7 (u&u vs unroll-only vs unmerge-only per
// application).
func BenchmarkFig7(b *testing.B) {
	res := sweep(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bench.WriteFig7(io.Discard, res)
	}
	b.StopTimer()
	bench.WriteFig7(os.Stdout, res)
}

// BenchmarkFig8 regenerates Figures 8a/8b (per-loop scatter: u&u vs unroll,
// u&u vs unmerge).
func BenchmarkFig8(b *testing.B) {
	res := sweep(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bench.WriteFig8(io.Discard, res)
	}
	b.StopTimer()
	bench.WriteFig8(os.Stdout, res)
}

// BenchmarkCompile measures the compiler pipeline itself (the quantity
// behind Figure 6c) on the paper's motivating kernel.
func BenchmarkCompile(b *testing.B) {
	for _, cfg := range []pipeline.Options{
		{Config: pipeline.Baseline},
		{Config: pipeline.UnrollOnly, LoopID: 0, Factor: 4},
		{Config: pipeline.UnmergeOnly, LoopID: 0},
		{Config: pipeline.UU, LoopID: 0, Factor: 4},
		{Config: pipeline.UUHeuristic},
	} {
		name := string(cfg.Config)
		if cfg.Factor > 0 {
			name = fmt.Sprintf("%s-u%d", cfg.Config, cfg.Factor)
		}
		b.Run(name, func(b *testing.B) {
			xs := bench.ByName("xsbench")
			for i := 0; i < b.N; i++ {
				if _, err := bench.Compile(xs, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimulate measures one simulated kernel execution per
// configuration for the in-depth-analysis applications (§V).
func BenchmarkSimulate(b *testing.B) {
	dev := gpusim.V100()
	for _, app := range []string{"xsbench", "rainflow", "complex", "bezier-surface"} {
		for _, cfg := range []pipeline.Options{
			{Config: pipeline.Baseline},
			{Config: pipeline.UU, LoopID: 0, Factor: 2},
		} {
			name := fmt.Sprintf("%s/%s", app, cfg.Config)
			b.Run(name, func(b *testing.B) {
				bm := bench.ByName(app)
				w := bm.NewWorkload()
				cr, err := bench.Compile(bm, cfg)
				if err != nil {
					b.Fatal(err)
				}
				var last *gpusim.Metrics
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m, err := bench.Execute(cr, w, dev, nil)
					if err != nil {
						b.Fatal(err)
					}
					last = m
				}
				b.StopTimer()
				if last != nil {
					b.ReportMetric(last.KernelMillis(dev)*1e3, "sim-us/launch")
					b.ReportMetric(last.IPC(), "sim-IPC")
				}
			})
		}
	}
}

// BenchmarkInterpreter measures the reference interpreter on one xsbench
// lookup; it is the verification oracle's unit of work.
func BenchmarkInterpreter(b *testing.B) {
	xs := bench.ByName("xsbench")
	f := xs.Kernel()
	w := xs.NewWorkload()
	mem := w.NewMemory()
	env := interp.Env{TID: 0, NTID: int32(w.Launch.BlockDim), CTAID: 0, NCTAID: int32(w.Launch.GridDim)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := interp.RunCounted(f, w.Args, mem, env, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblations regenerates the design-choice ablation tables of
// DESIGN.md §4 (whole-path vs direct-successor duplication, GVN equality
// propagation, GVN load elimination, backend predication).
func BenchmarkAblations(b *testing.B) {
	dev := gpusim.V100()
	specs := []struct {
		app          string
		loop, factor int
	}{{"bezier-surface", 1, 2}, {"rainflow", 0, 4}, {"xsbench", 0, 2}, {"complex", 0, 4}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range specs {
			rows, err := bench.RunAblations(s.app, s.loop, s.factor, dev)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				bench.WriteAblations(os.Stdout, s.app, s.loop, s.factor, rows)
			}
		}
	}
}

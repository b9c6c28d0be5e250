package bench

import (
	"testing"

	"uu/internal/analysis"
	"uu/internal/pipeline"
	"uu/internal/remark"
)

// BenchmarkPipelineCompile measures per-kernel compile time through the
// baseline pipeline — the quantity behind the paper's Fig. 6c ratios and the
// number the pass-manager's analysis caching is meant to cut.
func BenchmarkPipelineCompile(b *testing.B) {
	for _, app := range Suite {
		app := app
		b.Run(app.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Compile(app, pipeline.Options{Config: pipeline.Baseline}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPipelineCompileUU is the same measurement through the paper's
// unroll-and-unmerge configuration (loop 0, factor 2), which exercises the
// loop-transform phase and its analysis invalidation on top of the cleanup
// rounds. The u8-worst sub-benchmark is the sweep's most expensive cell
// (see worstCell), where compile time and allocation blow up first, and
// u8-worst-contained the same cell under the guard with the verifier after
// every pass: the second's B/op over the first's is the containment tax.
func BenchmarkPipelineCompileUU(b *testing.B) {
	run := func(name string, app *Benchmark, opts pipeline.Options) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Compile(app, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, app := range Suite {
		run(app.Name, app, pipeline.Options{Config: pipeline.UU, LoopID: 0, Factor: 2})
	}
	app, opts := worstCell()
	run("u8-worst", app, opts)
	opts.Contain, opts.VerifyEachPass = true, true
	run("u8-worst-contained", app, opts)
}

// BenchmarkAnalysesWorstCell builds each cached CFG analysis over the worst
// cell's function as the loop pass leaves it — the 4 000-block body every
// cleanup round's first dominator tree and loop info are built over, and
// the shape where a table hashed by block pointer cost most.
func BenchmarkAnalysesWorstCell(b *testing.B) {
	app, opts := worstCell()
	f, err := app.CompileKernel()
	if err != nil {
		b.Fatal(err)
	}
	opts.StopAfter = 5 // the four canonicalization passes, then the loop pass
	st, err := pipeline.Optimize(f, opts)
	if err != nil {
		b.Fatal(err)
	}
	if last := st.PassTimes[len(st.PassTimes)-1].Name; last != "uu-loop-pass" {
		b.Fatalf("the pipeline stopped after %s, not after the loop pass", last)
	}
	dt := analysis.NewDomTree(f)
	b.Run("domtree", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			analysis.NewDomTree(f)
		}
	})
	b.Run("postdomtree", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			analysis.NewPostDomTree(f)
		}
	})
	b.Run("loopinfo", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			analysis.NewLoopInfo(f, dt)
		}
	})
}

// BenchmarkPipelineCompileRemarks measures the same u&u compile with the
// sinks in each state, so the disabled-path overhead can be read directly:
//
//	go test ./internal/bench -bench CompileRemarks -count 10
//
// The "off" variant is the bound the remark layer must hold — every
// emission site is a nil check and nothing else, so compile time with a nil
// sink must stay within noise (<2%) of the pre-remark pipeline.
func BenchmarkPipelineCompileRemarks(b *testing.B) {
	app := ByName("xsbench")
	for _, tc := range []struct {
		name string
		opts func() pipeline.Options
	}{
		{"off", func() pipeline.Options {
			return pipeline.Options{Config: pipeline.UU, LoopID: 0, Factor: 2}
		}},
		{"on", func() pipeline.Options {
			return pipeline.Options{Config: pipeline.UU, LoopID: 0, Factor: 2,
				Remarks: remark.NewCollector()}
		}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Compile(app, tc.opts()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRunExperiments measures the full-suite sweep wall clock (every
// app, every configuration, factors 2/4/8) — the uubench end-to-end cost.
func BenchmarkRunExperiments(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RunExperiments(HarnessOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

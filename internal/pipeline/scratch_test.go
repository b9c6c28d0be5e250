package pipeline_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"uu/internal/analysis"
	"uu/internal/bench"
	"uu/internal/codegen"
	"uu/internal/core"
	"uu/internal/harden"
	"uu/internal/ir"
	"uu/internal/pipeline"
	"uu/internal/remark"
	"uu/internal/transform"
)

// outcome is everything a compilation hands back that must not depend on
// the scratch it ran in.
type outcome struct {
	ir, stats, remarks, vptx string
	sum                      uint64
}

// compileIn compiles app under opts in s, with a remark collector, and
// lowers the result.
func compileIn(t *testing.T, app *bench.Benchmark, opts pipeline.Options, s *pipeline.Bundle) outcome {
	t.Helper()
	f, err := app.CompileKernel()
	if err != nil {
		t.Fatal(err)
	}
	rc := remark.NewCollector()
	opts.Remarks = rc
	st, err := pipeline.OptimizeIn(context.Background(), f, opts, s)
	o := outcome{ir: f.String(), sum: ir.Fingerprint(f), stats: clockless(st, err)}
	var y strings.Builder
	if err := remark.WriteYAML(&y, rc.Remarks(), nil); err != nil {
		t.Fatal(err)
	}
	o.remarks = y.String()
	prog, err := codegen.Lower(f)
	if err != nil {
		t.Fatal(err)
	}
	o.vptx = prog.String()
	return o
}

// clockless renders st and err without the clocks.
func clockless(st *pipeline.Stats, err error) string {
	c := *st
	c.Start, c.CompileTime, c.VerifyTime = time.Time{}, 0, 0
	c.PassTimes = slices.Clone(st.PassTimes)
	for i := range c.PassTimes {
		c.PassTimes[i].Start, c.PassTimes[i].Duration = 0, 0
	}
	return fmt.Sprintf("%+v err %v", c, err)
}

// countdown is a context that reports itself cancelled from its n-th Err
// call on. The pipeline polls Err before every pass invocation, so it stops
// a compilation at the pass boundary the test picks.
type countdown struct {
	context.Context
	n int
}

func (c *countdown) Done() <-chan struct{} { return make(chan struct{}) }

func (c *countdown) Err() error {
	if c.n--; c.n < 0 {
		return context.Canceled
	}
	return nil
}

// TestScratchReuseIsInvisible: a compilation in a bundle that other
// compilations have used must produce what it produces in a fresh one. Every
// suite kernel under the six golden configurations, contained and verified
// and with remarks, is compiled twice — in a new bundle, and in one bundle
// that first served the whole suite and the worst cell and, between every
// two cases, another kernel's compile that a chaos pass panicked in while
// contained, or whose SCCP solver panicked mid-solve in the bundle's own
// storage, or that was cancelled mid-pipeline. The printed IR, the
// fingerprint, Stats without its clocks, the remarks and the VPTX must be
// identical.
func TestScratchReuseIsInvisible(t *testing.T) {
	configs := []pipeline.Options{
		{Config: pipeline.Baseline},
		{Config: pipeline.UnrollOnly, LoopID: 0, Factor: 2},
		{Config: pipeline.UnmergeOnly, LoopID: 0},
		{Config: pipeline.UU, LoopID: 0, Factor: 2},
		{Config: pipeline.UUHeuristic},
		{Config: pipeline.UUHeuristic, Unmerge: core.Options{Selective: true}},
	}
	for i := range configs {
		configs[i].Contain, configs[i].VerifyEachPass = true, true
	}
	dirty := new(pipeline.Bundle)
	for _, app := range bench.Suite {
		compileIn(t, app, configs[4], dirty)
	}
	compileIn(t, bench.ByName("libor"), pipeline.Options{Config: pipeline.UU, LoopID: 0, Factor: 8, Contain: true, VerifyEachPass: true}, dirty)

	disruptions := []struct {
		name string
		run  func(f *ir.Function) error
	}{
		{"chaos panic", func(f *ir.Function) error {
			st, err := pipeline.OptimizeIn(context.Background(), f, pipeline.Options{
				Config: pipeline.UU, LoopID: 0, Factor: 4, Contain: true,
				Inject: []analysis.Pass{transform.ChaosPass(transform.ChaosPanic)},
			}, dirty)
			if len(st.Failures) != 1 {
				return fmt.Errorf("%d failures contained, want 1", len(st.Failures))
			}
			return err
		}},
		{"SCCP mid-solve panic", func(f *ir.Function) error {
			midSolve := transform.NewPass("sccp-mid-solve-panic", func(f *ir.Function, am *analysis.AnalysisManager) analysis.PreservedAnalyses {
				for _, b := range f.Blocks() {
					if phis := b.Phis(); len(phis) > 0 {
						phis[0].AddArg(phis[0].Arg(0)) // an incoming value with no block
						break
					}
				}
				return transform.SCCPPass(dirty.Transform()).Run(f, am)
			})
			st, err := pipeline.OptimizeIn(context.Background(), f, pipeline.Options{
				Config: pipeline.UUHeuristic, Contain: true, Inject: []analysis.Pass{midSolve},
			}, dirty)
			if len(st.Failures) != 1 || st.Failures[0].Kind != harden.FailurePanic {
				return fmt.Errorf("failures %+v, want the solver's panic", st.Failures)
			}
			return err
		}},
		{"cancel", func(f *ir.Function) error {
			_, err := pipeline.OptimizeIn(&countdown{context.Background(), 20}, f, pipeline.Options{
				Config: pipeline.UU, LoopID: 0, Factor: 4, Contain: true,
			}, dirty)
			if !errors.Is(err, context.Canceled) {
				return fmt.Errorf("err = %v, want a cancellation", err)
			}
			return nil
		}},
	}
	cases := 0
	for _, opts := range configs {
		for i, app := range bench.Suite {
			what := app.Name + "/" + string(opts.Config)
			if opts.Unmerge.Selective {
				what += "-selective"
			}
			want := compileIn(t, app, opts, new(pipeline.Bundle))
			got := compileIn(t, app, opts, dirty)
			for _, d := range []struct{ what, got, want string }{
				{"printed IR", got.ir, want.ir},
				{"fingerprint", fmt.Sprint(got.sum), fmt.Sprint(want.sum)},
				{"stats", got.stats, want.stats},
				{"remarks", got.remarks, want.remarks},
				{"VPTX", got.vptx, want.vptx},
			} {
				if d.got != d.want {
					t.Fatalf("%s: the %s from a used bundle differs from a fresh one's:\n--- fresh\n%s\n--- used\n%s", what, d.what, d.want, d.got)
				}
			}
			d := disruptions[cases%len(disruptions)]
			next := bench.Suite[(i+1)%len(bench.Suite)]
			f, err := next.CompileKernel()
			if err != nil {
				t.Fatal(err)
			}
			if err := d.run(f); err != nil {
				t.Fatalf("%s after %s: %v", d.name, what, err)
			}
			cases++
		}
	}
	t.Logf("%d compilations in a used bundle match a fresh one's", cases)
}

// TestParkedScratchPinsNoFunction: once a compilation has returned and filed
// its bundle, nothing the free list holds reaches the function it compiled.
// The worst cell, contained and verified, puts every layer's scratch to work;
// lowering it puts codegen's analysis storage to work, which codegen files on
// a list of its own.
// A finalizer on the *ir.Function itself would never run — the function and
// its blocks point at each other, and the runtime does not finalize a cycle
// — so it sits on a constant only the compiled function references, which
// the collector frees exactly when it frees the function.
func TestParkedScratchPinsNoFunction(t *testing.T) {
	freed := make(chan struct{})
	func() {
		f, err := bench.ByName("libor").CompileKernel()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pipeline.Optimize(f, pipeline.Options{Config: pipeline.UU, LoopID: 0, Factor: 8, Contain: true, VerifyEachPass: true}); err != nil {
			t.Fatal(err)
		}
		c := ir.ConstInt(ir.I64, 42)
		entry := f.Entry()
		entry.InsertBefore(ir.NewInstr(ir.OpAdd, ir.I64, c, c), entry.Term())
		runtime.SetFinalizer(c, func(*ir.Const) { close(freed) })
		if _, err := codegen.Lower(f); err != nil {
			t.Fatal(err)
		}
	}()
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-time.After(50 * time.Millisecond):
		}
	}
	t.Fatal("the compiled function is still reachable after its compilation filed its bundle")
}

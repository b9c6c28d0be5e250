package pipeline_test

import (
	"fmt"
	"testing"

	"uu/internal/analysis"
	"uu/internal/bench"
	"uu/internal/harden"
	"uu/internal/ir"
	"uu/internal/pipeline"
)

// TestCanonicalizeIsPhaseOne holds the two runners of the canonicalization
// pass list to each other: on every suite kernel and the generated kernels
// of seeds 1–200, Canonicalize must leave the IR an Optimize stopped after
// its canonicalize phase leaves, and number the same loops at the same
// headers.
func TestCanonicalizeIsPhaseOne(t *testing.T) {
	var fs []*ir.Function
	for _, b := range bench.Suite {
		fs = append(fs, b.Kernel())
	}
	for seed := int64(1); seed <= 200; seed++ {
		fs = append(fs, harden.Generate(seed).F)
	}
	loops := 0
	for _, f := range fs {
		full, err := pipeline.Optimize(ir.Clone(f), pipeline.Options{Config: pipeline.Baseline})
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		phase1 := 0
		for _, pt := range full.PassTimes {
			if pt.Phase == "canonicalize" {
				phase1++
			}
		}
		want := ir.Clone(f)
		if _, err := pipeline.Optimize(want, pipeline.Options{Config: pipeline.Baseline, StopAfter: phase1}); err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		got := ir.Clone(f)
		li := pipeline.Canonicalize(got)
		if got.String() != want.String() {
			t.Fatalf("%s: Canonicalize and Optimize's first %d passes leave different IR\n--- Canonicalize\n%s\n--- Optimize\n%s", f.Name, phase1, got, want)
		}
		wantLoops := analysis.NewLoopInfo(want, analysis.NewDomTree(want)).Loops
		if g, w := loopHeaders(li.Loops), loopHeaders(wantLoops); g != w {
			t.Fatalf("%s: Canonicalize numbers loops %s, Optimize %s", f.Name, g, w)
		}
		loops += len(wantLoops)
	}
	if loops < 200 {
		t.Fatalf("only %d loops compared: the corpus lost its loops", loops)
	}
	t.Logf("%d kernels, %d loops: Canonicalize is Optimize's canonicalize phase", len(fs), loops)
}

// loopHeaders renders each loop as its ID and its header's name.
func loopHeaders(ls []*analysis.Loop) string {
	s := ""
	for _, l := range ls {
		s += fmt.Sprintf(" #%d@%s", l.ID, l.Header.Name)
	}
	return s
}

// TestContainmentHealthyPathByteIdentical compiles every suite kernel under
// every configuration with and without containment: a healthy run records
// no failure, produces the same IR, and follows the same pass schedule —
// the same (name, phase) records in the same order, verifier calls
// included. Both runs' records must also be well-formed, since -pass-stats,
// Figure 6c and every trace are rendered from them: a phase on every
// record, start offsets that never go back, and no record past the end of
// the compile clock.
func TestContainmentHealthyPathByteIdentical(t *testing.T) {
	compile := func(b *bench.Benchmark, opts pipeline.Options) (string, *pipeline.Stats, error) {
		f, err := b.CompileKernel()
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		st, err := pipeline.Optimize(f, opts)
		return f.String(), st, err
	}
	wellFormed := func(what string, st *pipeline.Stats) {
		t.Helper()
		if len(st.PassTimes) == 0 {
			t.Fatalf("%s: no pass records", what)
		}
		for i, pt := range st.PassTimes {
			if pt.Phase == "" {
				t.Errorf("%s: record %d (%s) has no phase", what, i, pt.Name)
			}
			if i > 0 && pt.Start < st.PassTimes[i-1].Start {
				t.Errorf("%s: record %d (%s) starts before record %d", what, i, pt.Name, i-1)
			}
			if pt.Start < 0 || pt.Duration < 0 || pt.Start+pt.Duration > st.CompileTime {
				t.Errorf("%s: record %d (%s) spans %v+%v outside the compile's %v", what, i, pt.Name, pt.Start, pt.Duration, st.CompileTime)
			}
		}
	}
	for _, b := range bench.Suite {
		for _, cfg := range pipeline.Configs {
			what := b.Name + "/" + string(cfg)
			opts := pipeline.Options{Config: cfg, LoopID: 0, Factor: 2, VerifyEachPass: true}
			clean, cleanStats, cleanErr := compile(b, opts)
			opts.Contain = true
			contained, stats, err := compile(b, opts)
			// An app without a loop #0 reports that from both runs, after a
			// complete compilation.
			if (err == nil) != (cleanErr == nil) {
				t.Fatalf("%s: containment changed the outcome: %v vs %v", what, err, cleanErr)
			}
			if len(stats.Failures) != 0 {
				t.Fatalf("%s: healthy run recorded failures: %+v", what, stats.Failures)
			}
			if contained != clean {
				t.Fatalf("%s: containment changed healthy output", what)
			}
			wellFormed(what, cleanStats)
			wellFormed(what+" contained", stats)
			if len(stats.PassTimes) != len(cleanStats.PassTimes) {
				t.Fatalf("%s: containment changed the pass schedule: %d vs %d entries",
					what, len(stats.PassTimes), len(cleanStats.PassTimes))
			}
			for i, pt := range stats.PassTimes {
				if c := cleanStats.PassTimes[i]; pt.Name != c.Name || pt.Phase != c.Phase {
					t.Fatalf("%s: containment changed record %d: %s/%s vs %s/%s",
						what, i, pt.Phase, pt.Name, c.Phase, c.Name)
				}
			}
		}
	}
}

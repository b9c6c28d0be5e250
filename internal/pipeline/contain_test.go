package pipeline

import (
	"context"
	"errors"
	"testing"
	"time"

	"uu/internal/analysis"
	"uu/internal/harden"
	"uu/internal/ir"
	"uu/internal/lang"
	"uu/internal/transform"
)

func optimized(t *testing.T, opts Options) (string, *Stats) {
	t.Helper()
	f, err := lang.CompileKernel(bsearchSrc)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	stats, err := Optimize(f, opts)
	if err != nil {
		t.Fatalf("optimize %s: %v", opts.Config, err)
	}
	return f.String(), stats
}

func TestContainmentRecoversInjectedPanic(t *testing.T) {
	clean, _ := optimized(t, Options{Config: UU, LoopID: 0, Factor: 2, VerifyEachPass: true})
	got, stats := optimized(t, Options{
		Config: UU, LoopID: 0, Factor: 2, VerifyEachPass: true, Contain: true,
		Inject: []analysis.Pass{transform.ChaosPass(transform.ChaosPanic)},
	})
	if len(stats.Failures) != 1 {
		t.Fatalf("want 1 contained failure, got %+v", stats.Failures)
	}
	pf := stats.Failures[0]
	if pf.Kind != harden.FailurePanic || pf.Pass != "chaos-panic" {
		t.Fatalf("unexpected failure record: %+v", pf)
	}
	if got != clean {
		t.Fatalf("contained panic changed the compilation result:\n--- clean\n%s\n--- contained\n%s", clean, got)
	}
}

// TestContainmentRollsBackVerifierRejection: the driver's verifier rejects
// the injected corruption, and the guard rolls it back. Up to that verify
// call the compilation records what an uncontained one does, and the
// rejected pass is recorded as having changed nothing.
func TestContainmentRollsBackVerifierRejection(t *testing.T) {
	clean, _ := optimized(t, Options{Config: Baseline, VerifyEachPass: true})
	corrupt := []analysis.Pass{transform.ChaosPass(transform.ChaosCorrupt)}
	got, stats := optimized(t, Options{Config: Baseline, VerifyEachPass: true, Contain: true, Inject: corrupt})
	if len(stats.Failures) != 1 || stats.Failures[0].Kind != harden.FailureVerify {
		t.Fatalf("want 1 verify failure, got %+v", stats.Failures)
	}
	if got != clean {
		t.Fatalf("contained corruption changed the compilation result")
	}
	if stats.Failures[0].IR == "" {
		t.Fatalf("failure record carries no reproducer IR")
	}
	f, err := lang.CompileKernel(bsearchSrc)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	uncontained, err := Optimize(f, Options{Config: Baseline, VerifyEachPass: true, Inject: corrupt})
	if err == nil {
		t.Fatalf("uncontained verifier rejection must surface as an error")
	}
	n := len(uncontained.PassTimes)
	if len(stats.PassTimes) <= n {
		t.Fatalf("the contained compile stopped at the rejection: %d records", len(stats.PassTimes))
	}
	for i, want := range uncontained.PassTimes {
		if pt := stats.PassTimes[i]; pt.Name != want.Name || pt.Phase != want.Phase {
			t.Fatalf("record %d is %s/%s, the uncontained compile's %s/%s", i, pt.Name, pt.Phase, want.Name, want.Phase)
		}
	}
	if rejected := stats.PassTimes[n-2]; rejected.Name != "chaos-corrupt" || rejected.Changed {
		t.Fatalf("the rejected pass is recorded as %s changed=%t; want chaos-corrupt changed=false", rejected.Name, rejected.Changed)
	}
}

// TestVerifyTimeIsTheVerifyRecords: with VerifyEachPass, contained or not,
// Stats.VerifyTime is the verifier's clock and nothing else — the sum of the
// "verify" records' durations.
func TestVerifyTimeIsTheVerifyRecords(t *testing.T) {
	for _, contain := range []bool{false, true} {
		_, st := optimized(t, Options{Config: UU, LoopID: 0, Factor: 2, VerifyEachPass: true, Contain: contain})
		var sum time.Duration
		n := 0
		for _, pt := range st.PassTimes {
			if pt.Name == "verify" {
				sum += pt.Duration
				n++
			}
		}
		if n == 0 || st.VerifyTime <= 0 || st.VerifyTime != sum {
			t.Errorf("contain=%t: VerifyTime %v over %d verify records summing to %v", contain, st.VerifyTime, n, sum)
		}
	}
}

// TestGuardRollsBackToLiarsOutput: the guard keeps a snapshot across
// invocations that leave the IR alone, and decides "left alone" by hashing
// the function, never by the pass's word. A pass that edits an operand and
// declares Unchanged, followed by a pass that panics, must roll back to the
// edited function — the IR the panicking pass was handed — not to the
// snapshot from before the lie.
func TestGuardRollsBackToLiarsOutput(t *testing.T) {
	var edited string
	liar := func() analysis.Pass {
		return transform.NewPass("liar", func(f *ir.Function, _ *analysis.AnalysisManager) analysis.PreservedAnalyses {
			for _, b := range f.Blocks() {
				for _, in := range b.Instrs() {
					for i := 0; i < in.NumArgs(); i++ {
						if c, ok := in.Arg(i).(*ir.Const); ok && !in.IsPhi() && c.Typ.IsInt() && c.Typ != ir.I1 {
							in.SetArg(i, ir.ConstInt(c.Typ, c.Int+41))
							edited = f.String()
							return analysis.Unchanged()
						}
					}
				}
			}
			t.Fatalf("no integer constant operand to edit")
			return analysis.Unchanged()
		})
	}
	opts := Options{Config: UU, LoopID: 0, Factor: 2, VerifyEachPass: true, Contain: true}
	opts.Inject = []analysis.Pass{liar()}
	want, _ := optimized(t, opts)
	opts.Inject = []analysis.Pass{liar(), transform.ChaosPass(transform.ChaosPanic)}
	got, stats := optimized(t, opts)
	if len(stats.Failures) != 1 || stats.Failures[0].Pass != "chaos-panic" {
		t.Fatalf("want the injected panic contained, got %+v", stats.Failures)
	}
	if stats.Failures[0].IR != edited {
		t.Fatalf("rolled back past the liar's edit:\n--- restored\n%s\n--- the liar left\n%s", stats.Failures[0].IR, edited)
	}
	if got != want {
		t.Fatalf("the contained panic changed the compilation result")
	}
}

// finalised checks what every return path of Optimize owes its caller: a
// clocked, summarised Stats, whether or not the compilation succeeded.
func finalised(t *testing.T, st *Stats) {
	t.Helper()
	if st.CompileTime <= 0 || st.Start.IsZero() {
		t.Errorf("compile clock not set: start %v, compile %v", st.Start, st.CompileTime)
	}
	if len(st.PassTimes) == 0 {
		t.Fatalf("no pass records")
	}
	if st.Analysis.TotalMisses() == 0 {
		t.Errorf("analysis-cache summary not set: %+v", st.Analysis)
	}
}

func TestVerifyRejectionWithoutContainmentErrors(t *testing.T) {
	f, err := lang.CompileKernel(bsearchSrc)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	st, err := Optimize(f, Options{
		Config: Baseline, VerifyEachPass: true,
		Inject: []analysis.Pass{transform.ChaosPass(transform.ChaosCorrupt)},
	})
	if err == nil {
		t.Fatalf("uncontained verifier rejection must surface as an error")
	}
	// The failed compilation still reports what ran, up to and including the
	// verifier call that rejected the injected pass.
	finalised(t, st)
	n := len(st.PassTimes)
	if last, prev := st.PassTimes[n-1], st.PassTimes[n-2]; last.Name != "verify" || last.Phase != "inject" || prev.Name != "chaos-corrupt" {
		t.Errorf("record ends with %s, %s/%s; want chaos-corrupt, verify/inject", prev.Name, last.Name, last.Phase)
	}
}

// TestCancelMidPipelineKeepsStats cancels the context from inside the
// pipeline: compilation stops at the next pass boundary, and the Stats that
// come back with the error are finalised — including the failure the guard
// contained before the cancel.
func TestCancelMidPipelineKeepsStats(t *testing.T) {
	f, err := lang.CompileKernel(bsearchSrc)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	canceler := transform.NewPass("cancel", func(*ir.Function, *analysis.AnalysisManager) analysis.PreservedAnalyses {
		cancel()
		return analysis.Unchanged()
	})
	st, err := OptimizeCtx(ctx, f, Options{
		Config: UU, LoopID: 0, Factor: 2, Contain: true,
		Inject: []analysis.Pass{transform.ChaosPass(transform.ChaosPanic), canceler},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	finalised(t, st)
	if last := st.PassTimes[len(st.PassTimes)-1]; last.Name != "cancel" {
		t.Errorf("pipeline ran %s after the cancel", last.Name)
	}
	if len(st.Failures) != 1 || st.Failures[0].Pass != "chaos-panic" {
		t.Errorf("contained failure lost on the canceled path: %+v", st.Failures)
	}
}

func TestMiscompileInjectionEvadesVerifier(t *testing.T) {
	// The chaos miscompile is verifier-clean by design: containment with
	// verify-each must NOT catch it. This pins down why the differential
	// oracle exists (harden/fuzz catches it; see that package's tests).
	clean, _ := optimized(t, Options{Config: Baseline, VerifyEachPass: true})
	got, stats := optimized(t, Options{
		Config: Baseline, VerifyEachPass: true, Contain: true,
		Inject: []analysis.Pass{transform.ChaosPass(transform.ChaosMiscompile)},
	})
	if len(stats.Failures) != 0 {
		t.Fatalf("verifier unexpectedly caught the miscompile: %+v", stats.Failures)
	}
	if got == clean {
		t.Fatalf("miscompile injection had no effect on the output")
	}
}

func nonVerifyPasses(st *Stats) []string {
	var names []string
	for _, pt := range st.PassTimes {
		if pt.Name != "verify" {
			names = append(names, pt.Name)
		}
	}
	return names
}

func TestStopAfterTruncatesPipeline(t *testing.T) {
	_, full := optimized(t, Options{Config: UU, LoopID: 0, Factor: 2})
	total := len(nonVerifyPasses(full))
	if total < 6 {
		t.Fatalf("pipeline unexpectedly short: %d invocations", total)
	}
	for _, k := range []int{1, 3, total} {
		_, st := optimized(t, Options{Config: UU, LoopID: 0, Factor: 2, StopAfter: k})
		got := nonVerifyPasses(st)
		if len(got) != k {
			t.Fatalf("StopAfter=%d ran %d invocations (%v)", k, len(got), got)
		}
		want := nonVerifyPasses(full)[:k]
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("StopAfter=%d invocation %d: got %s, want %s", k, i, got[i], want[i])
			}
		}
	}
	// A limit beyond the pipeline's length is a no-op.
	_, st := optimized(t, Options{Config: UU, LoopID: 0, Factor: 2, StopAfter: total + 100})
	if len(nonVerifyPasses(st)) != total {
		t.Fatalf("oversized StopAfter changed the pipeline")
	}
}

// TestSCCPSolverReusableAfterPanic: every SCCP invocation that shares a
// transform.Scratch runs out of one solver, so an invocation abandoned
// mid-solve — worklists loaded, lattice half lowered — must cost the next
// one nothing. The injected pass gives a phi a value with no incoming block
// and runs the shared pass on it, which panics inside the solver; the guard
// rolls the function back, and the shared solver's next invocation must do
// exactly what a fresh solver does.
func TestSCCPSolverReusableAfterPanic(t *testing.T) {
	compile := func(before, broken, after analysis.Pass) string {
		midSolve := transform.NewPass("sccp-mid-solve-panic", func(f *ir.Function, am *analysis.AnalysisManager) analysis.PreservedAnalyses {
			for _, b := range f.Blocks() {
				if phis := b.Phis(); len(phis) > 0 {
					phis[0].AddArg(phis[0].Arg(0))
					break
				}
			}
			return broken.Run(f, am)
		})
		got, stats := optimized(t, Options{
			Config: UU, LoopID: 0, Factor: 4, Contain: true,
			Inject: []analysis.Pass{before, midSolve, after},
		})
		if len(stats.Failures) != 1 || stats.Failures[0].Kind != harden.FailurePanic || stats.Failures[0].Pass != "sccp-mid-solve-panic" {
			t.Fatalf("want the solver's one panic contained, got %+v", stats.Failures)
		}
		return got
	}
	shared := transform.SCCPPass(new(transform.Scratch))
	reused := compile(shared, shared, shared)
	fresh := compile(transform.SCCPPass(new(transform.Scratch)), transform.SCCPPass(new(transform.Scratch)), transform.SCCPPass(new(transform.Scratch)))
	if reused != fresh {
		t.Fatalf("a solver that panicked mid-run compiles differently from fresh ones:\n--- fresh\n%s\n--- reused\n%s", fresh, reused)
	}
}

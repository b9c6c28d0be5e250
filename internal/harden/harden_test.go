package harden

import (
	"strings"
	"testing"
	"time"

	"uu/internal/analysis"
	"uu/internal/ir"
	"uu/internal/irparse"
)

const countLoopSrc = `
func @count(i64 %n) -> i64 {
entry:
  br %head
head:
  %i = phi i64 [ 0, %entry ], [ %i2, %body ]
  %s = phi i64 [ 0, %entry ], [ %s2, %body ]
  %c = icmp slt i64 %i, i64 %n
  condbr i1 %c, %body, %exit
body:
  %s2 = add i64 %s, i64 %i
  %i2 = add i64 %i, i64 1
  br %head
exit:
  %r = phi i64 [ %s, %head ]
  ret i64 %r
}
`

type fakePass struct {
	name string
	run  func(f *ir.Function, am *analysis.AnalysisManager) analysis.PreservedAnalyses
}

func (p *fakePass) Name() string { return p.name }
func (p *fakePass) Run(f *ir.Function, am *analysis.AnalysisManager) analysis.PreservedAnalyses {
	return p.run(f, am)
}

// runPass runs p under g the way the pipeline's driver does.
func runPass(g *Guard, p analysis.Pass, f *ir.Function, am *analysis.AnalysisManager) (analysis.PreservedAnalyses, time.Duration, bool) {
	return g.Run(p.Name(), f, am, func() analysis.PreservedAnalyses { return p.Run(f, am) })
}

func parseCountLoop(t *testing.T) *ir.Function {
	t.Helper()
	f, err := irparse.ParseFunc(countLoopSrc)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return f
}

func TestGuardContainsPanic(t *testing.T) {
	f := parseCountLoop(t)
	want := f.String()
	am := analysis.NewAnalysisManager(f)
	am.DomTree() // warm the cache so rollback invalidation is observable
	g := &Guard{}
	crash := &fakePass{name: "crash", run: func(f *ir.Function, am *analysis.AnalysisManager) analysis.PreservedAnalyses {
		// Half-destroy the IR, then die: the guard must both recover the
		// panic and undo the partial mutation.
		ex := f.BlockByName("exit")
		ex.Remove(ex.Term())
		panic("boom: deliberate test crash")
	}}
	pa, _, failed := runPass(g, crash, f, am)
	if !failed {
		t.Fatalf("guard did not report the panic")
	}
	if pa.Changed() {
		t.Fatalf("rollback must report an unchanged function")
	}
	if got := f.String(); got != want {
		t.Fatalf("function not rolled back:\n--- want\n%s\n--- got\n%s", want, got)
	}
	if err := ir.Verify(f); err != nil {
		t.Fatalf("restored function fails verify: %v", err)
	}
	fails := g.Failures()
	if len(fails) != 1 {
		t.Fatalf("want 1 failure, got %d", len(fails))
	}
	pf := fails[0]
	if pf.Kind != FailurePanic || pf.Pass != "crash" || pf.Function != "count" {
		t.Fatalf("bad failure record: %+v", pf)
	}
	if !strings.Contains(pf.Err, "boom") {
		t.Fatalf("failure lost the panic value: %q", pf.Err)
	}
	if !strings.Contains(pf.Stack, "harden") {
		t.Fatalf("failure has no stack trace")
	}
	if pf.IR != want {
		t.Fatalf("failure does not carry the pre-pass IR")
	}
}

func TestGuardContainsVerifierRejection(t *testing.T) {
	f := parseCountLoop(t)
	want := f.String()
	am := analysis.NewAnalysisManager(f)
	g := &Guard{Verify: true}
	corrupt := &fakePass{name: "corrupt", run: func(f *ir.Function, am *analysis.AnalysisManager) analysis.PreservedAnalyses {
		// Detach the exit block's terminator: a structural violation the
		// verifier rejects but that does not panic on its own.
		ex := f.BlockByName("exit")
		ex.Remove(ex.Term())
		return analysis.PreserveNone()
	}}
	_, _, failed := runPass(g, corrupt, f, am)
	if !failed {
		t.Fatalf("guard did not catch the verifier rejection")
	}
	if got := f.String(); got != want {
		t.Fatalf("function not rolled back after verify failure")
	}
	fails := g.Failures()
	if len(fails) != 1 || fails[0].Kind != FailureVerify {
		t.Fatalf("want one verify failure, got %+v", fails)
	}
	if fails[0].IR != want {
		t.Fatalf("failure does not carry the pre-pass IR")
	}
}

func TestGuardPassesThroughHealthyRuns(t *testing.T) {
	f := parseCountLoop(t)
	am := analysis.NewAnalysisManager(f)
	g := &Guard{Verify: true}
	ok := &fakePass{name: "nop", run: func(f *ir.Function, am *analysis.AnalysisManager) analysis.PreservedAnalyses {
		return analysis.Unchanged()
	}}
	pa, vdur, failed := runPass(g, ok, f, am)
	if failed {
		t.Fatalf("healthy pass reported as failed: %+v", g.Failures())
	}
	if pa.Changed() {
		t.Fatalf("unchanged declaration lost")
	}
	if vdur <= 0 {
		t.Fatalf("verify time not accounted")
	}
	if len(g.Failures()) != 0 {
		t.Fatalf("spurious failures: %+v", g.Failures())
	}
}

// TestGuardReusesSnapshotUntilIRMoves pins the retained snapshot's life
// cycle: kept while the function hashes to it, whatever the pass declared;
// replaced once the function has moved; spent by a rollback.
func TestGuardReusesSnapshotUntilIRMoves(t *testing.T) {
	f := parseCountLoop(t)
	am := analysis.NewAnalysisManager(f)
	g := &Guard{Verify: true}
	nop := &fakePass{name: "nop", run: func(*ir.Function, *analysis.AnalysisManager) analysis.PreservedAnalyses {
		return analysis.PreserveNone() // declares a change it did not make
	}}
	liar := &fakePass{name: "liar", run: func(f *ir.Function, am *analysis.AnalysisManager) analysis.PreservedAnalyses {
		body := f.BlockByName("body")
		body.Instrs()[1].SetArg(1, ir.ConstInt(ir.I64, 2)) // %i2 = add %i, 2
		return analysis.Unchanged()
	}}
	crash := &fakePass{name: "crash", run: func(*ir.Function, *analysis.AnalysisManager) analysis.PreservedAnalyses {
		panic("boom")
	}}
	runPass(g, nop, f, am)
	first := g.snap
	runPass(g, nop, f, am)
	if first == nil || g.snap != first {
		t.Fatalf("an untouched function was snapshotted again")
	}
	runPass(g, liar, f, am)
	if g.snap != first {
		t.Fatalf("the liar's own invocation found the function moved")
	}
	edited := f.String()
	runPass(g, nop, f, am)
	if g.snap == first || g.snap.String() != edited {
		t.Fatalf("the snapshot did not follow the undeclared edit")
	}
	if _, _, failed := runPass(g, crash, f, am); !failed {
		t.Fatalf("crash not contained")
	}
	if g.snap != nil {
		t.Fatalf("a rollback must spend the snapshot: its body now is the function's")
	}
	if got := f.String(); got != edited || g.Failures()[0].IR != edited {
		t.Fatalf("rolled back past the undeclared edit:\n%s", got)
	}
	runPass(g, nop, f, am)
	if g.snap == nil || g.snap.String() != edited || ir.Fingerprint(g.snap) != ir.Fingerprint(f) {
		t.Fatalf("no fresh snapshot after the rollback")
	}
}

func TestGuardContinuesAfterFailure(t *testing.T) {
	// A failure must leave the function usable by subsequent passes — the
	// whole point of containment.
	f := parseCountLoop(t)
	am := analysis.NewAnalysisManager(f)
	g := &Guard{Verify: true}
	crash := &fakePass{name: "crash", run: func(f *ir.Function, am *analysis.AnalysisManager) analysis.PreservedAnalyses {
		panic("again")
	}}
	mutate := &fakePass{name: "mutate", run: func(f *ir.Function, am *analysis.AnalysisManager) analysis.PreservedAnalyses {
		// A real (well-formed) rewrite: renaming via fresh block insertion.
		nb := f.NewBlock("dead")
		ir.NewBuilder(nb).Ret(ir.ConstInt(ir.I64, 0))
		return analysis.PreserveNone()
	}}
	if _, _, failed := runPass(g, crash, f, am); !failed {
		t.Fatalf("first pass should fail")
	}
	pa, _, failed := runPass(g, mutate, f, am)
	if failed || !pa.Changed() {
		t.Fatalf("pass after a contained failure did not run normally")
	}
	if err := ir.Verify(f); err != nil {
		t.Fatalf("verify after post-failure pass: %v", err)
	}
	if len(g.Failures()) != 1 {
		t.Fatalf("want exactly the first failure recorded, got %d", len(g.Failures()))
	}
}

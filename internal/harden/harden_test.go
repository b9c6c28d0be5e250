package harden

import (
	"os"
	"path/filepath"
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
	g := &Guard{Verify: true, DumpDir: t.TempDir()}
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
	if fails[0].IRDump == "" {
		t.Fatalf("DumpDir was set but no dump path recorded")
	}
	data, err := os.ReadFile(fails[0].IRDump)
	if err != nil {
		t.Fatalf("reading dump: %v", err)
	}
	if string(data) != want {
		t.Fatalf("dump file does not hold the pre-pass IR")
	}
	if filepath.Dir(fails[0].IRDump) == "" {
		t.Fatalf("dump path not under DumpDir")
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

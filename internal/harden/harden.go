// Package harden supplies the pass-pipeline crash-containment layer: a
// Guard that runs each pass invocation against an IR snapshot (taken only
// when the IR has moved since the last one), recovers panics, optionally
// verifies the IR afterwards, and rolls the function back to the snapshot
// on failure so one bad pass degrades a single kernel to its pre-pass form
// instead of killing a whole experiment campaign. The package also hosts
// the seeded random kernel generator (gen.go) that feeds the differential
// fuzzer in harden/fuzz.
//
// harden is deliberately a leaf: it imports only ir and analysis, so the
// pipeline can depend on it while the fuzzer's oracle (which needs the
// pipeline, interpreter, and simulator) lives in the harden/fuzz
// subpackage.
package harden

import (
	"fmt"
	"runtime/debug"
	"strings"
	"time"

	"uu/internal/analysis"
	"uu/internal/ir"
)

// FailureKind classifies what the guard caught.
type FailureKind string

// The two containment triggers.
const (
	// FailurePanic means the pass panicked; the function was rolled back to
	// the pre-pass snapshot.
	FailurePanic FailureKind = "panic"
	// FailureVerify means the pass returned but left IR the verifier
	// rejects; the function was rolled back to the pre-pass snapshot.
	FailureVerify FailureKind = "verify"
)

// PassFailure is the structured record of one contained pass failure.
type PassFailure struct {
	Pass     string      // pass (or phase) name as instrumented in Stats
	Function string      // function being compiled
	Kind     FailureKind // panic or verify
	Err      string      // panic value or verifier error
	Stack    string      // goroutine stack at the recovery point (panics only)
	IR       string      // pre-pass IR snapshot, the reproducer input
}

// String formats the failure as a one-line report entry.
func (pf *PassFailure) String() string {
	return fmt.Sprintf("%s: %s in %s: %s", pf.Function, pf.Kind, pf.Pass, firstLine(pf.Err))
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// Guard contains pass failures. The zero value contains panics only; set
// Verify to also reject IR the verifier refuses. A Guard belongs to one
// compilation — the pipeline builds one per Optimize call — and is not safe
// for concurrent use: besides the failure list it keeps the snapshot it
// would roll back to.
//
// A snapshot is reused iff the function hashes to the state it was taken in
// (ir.Fingerprint). Most pass invocations change nothing, so most find the
// previous invocation's snapshot still current and copy nothing. A pass's
// PreservedAnalyses declaration is never trusted for rollback: a pass that
// edits the function and reports Unchanged would otherwise send a later
// failure back past its edit.
type Guard struct {
	// Verify runs ir.Verify after every contained invocation and treats a
	// rejection like a crash (rollback + record).
	Verify bool

	failures []PassFailure
	// snap is a clone of the function as it was when it hashed to snapSum;
	// nil before the first invocation and after a rollback, which hands the
	// snapshot's body to the function.
	snap    *ir.Function
	snapSum uint64
}

// testHookSnapshot, when set by a test, is called by Run between its
// snapshot decision and the pass: snap is what a failure of this invocation
// would restore, cloned says whether this invocation had to take it.
var testHookSnapshot func(f, snap *ir.Function, cloned bool)

// Failures returns a copy of the failures recorded so far.
func (g *Guard) Failures() []PassFailure {
	return append([]PassFailure(nil), g.failures...)
}

// Run executes run (one pass invocation on f) under containment: a snapshot
// of the IR is in hand first — the retained one if f still hashes to it, a
// fresh clone otherwise; a panic or — with Verify set — a post-run verifier
// rejection rolls f back to the snapshot, invalidates every cached
// analysis (the restored body is made of fresh objects), records a
// PassFailure, and reports failed=true with an Unchanged declaration so a
// fixpoint driver does not loop on the rollback. verifyTime is the wall
// time spent in ir.Verify (zero when Verify is off), reported separately
// so callers can keep their verify-time accounting exact.
func (g *Guard) Run(name string, f *ir.Function, am *analysis.AnalysisManager, run func() analysis.PreservedAnalyses) (pa analysis.PreservedAnalyses, verifyTime time.Duration, failed bool) {
	sum := ir.Fingerprint(f)
	cloned := g.snap == nil || g.snapSum != sum
	if cloned {
		g.snap, g.snapSum = ir.Clone(f), sum
	}
	if testHookSnapshot != nil {
		testHookSnapshot(f, g.snap, cloned)
	}
	pa, panicVal, stack := invoke(run)
	if stack != "" {
		g.contain(name, f, am, FailurePanic, panicVal, stack)
		return analysis.Unchanged(), 0, true
	}
	if g.Verify {
		v0 := time.Now()
		err := ir.Verify(f)
		verifyTime = time.Since(v0)
		if err != nil {
			g.contain(name, f, am, FailureVerify, err.Error(), "")
			return analysis.Unchanged(), verifyTime, true
		}
	}
	return pa, verifyTime, false
}

// invoke runs the pass body, converting a panic into (message, stack).
// stack is non-empty exactly when the body panicked.
func invoke(run func() analysis.PreservedAnalyses) (pa analysis.PreservedAnalyses, panicVal, stack string) {
	defer func() {
		if r := recover(); r != nil {
			panicVal = fmt.Sprint(r)
			stack = string(debug.Stack())
		}
	}()
	pa = run()
	return
}

// contain rolls f back to the snapshot and records the failure. The
// snapshot text is captured before Restore guts the snapshot function, and
// the snapshot is spent: the next invocation clones afresh.
func (g *Guard) contain(name string, f *ir.Function, am *analysis.AnalysisManager, kind FailureKind, msg, stack string) {
	irText := g.snap.String()
	ir.Restore(f, g.snap)
	g.snap = nil
	am.InvalidateAll()
	g.failures = append(g.failures, PassFailure{
		Pass:     name,
		Function: f.Name,
		Kind:     kind,
		Err:      msg,
		Stack:    stack,
		IR:       irText,
	})
}

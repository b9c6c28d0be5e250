// Package harden supplies the pass-pipeline crash-containment layer: a
// Guard that runs each pass invocation against an IR snapshot (taken only
// when the IR has moved since the last one), recovers panics, and rolls the
// function back to the snapshot — by copying the snapshot into it — when
// the pass panicked or the pipeline's verifier rejected its output, so one
// bad pass degrades a single kernel to its pre-pass form instead of killing
// a whole experiment campaign. The guard never verifies: the pipeline's
// driver is the one place a compilation runs the verifier, and it hands a
// rejection to Guard.Reject. The package also hosts the seeded random
// kernel generator (gen.go) that feeds the differential fuzzer in
// harden/fuzz.
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

// Guard contains pass failures: panics inside Run, and the verifier
// rejections its caller hands to Reject. A Guard belongs to one compilation
// — the pipeline builds one per Optimize call — and is not safe for
// concurrent use: besides the failure list it keeps the snapshot it would
// roll back to.
//
// A snapshot is reused iff the function hashes to the state it was taken in
// (ir.Fingerprint). Most pass invocations change nothing, so most find the
// previous invocation's snapshot still current and copy nothing; one that
// finds it stale writes the new snapshot into the stale one's storage
// (ir.CloneInto). A rollback copies the snapshot into the function the same
// way, so the snapshot stays current after it. A pass's PreservedAnalyses
// declaration is never trusted for rollback: a pass that edits the function
// and reports Unchanged would otherwise send a later failure back past its
// edit.
type Guard struct {
	failures []PassFailure
	// s holds the snapshot; the zero Guard makes its own on first use.
	s *Scratch
	// current says s.snap is a copy of the function as it was when it
	// hashed to snapSum. It is false until the guard's first snapshot: s
	// may hold a previous compilation's.
	current bool
	snapSum uint64
}

// Scratch is what a Guard leaves for the next compilation's: its last
// snapshot, whose storage the next guard's first snapshot is written into.
// The pipeline keeps one per compilation. The zero value holds nothing.
type Scratch struct {
	// snap is the last snapshot; nil when none was taken.
	snap *ir.Function
}

// maxSpareInstrIDs bounds what a parked Scratch keeps: a snapshot of a
// function with more instruction IDs than this is dropped, not kept.
const maxSpareInstrIDs = 1 << 15

// Park readies s to wait for the next compilation. The snapshot is a
// function of its own — it references none of the function it copies — so
// keeping it pins nothing; one over maxSpareInstrIDs is dropped.
func (s *Scratch) Park() {
	if s.snap != nil && s.snap.InstrIDBound() > maxSpareInstrIDs {
		s.snap = nil
	}
}

// NewGuard returns a guard for one compilation whose snapshots are written
// into s's storage.
func NewGuard(s *Scratch) *Guard {
	return &Guard{s: s}
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
// new copy written over it otherwise. A panic rolls f back to the snapshot
// and is recorded (contain), and Run reports failed=true with an Unchanged
// declaration so a fixpoint driver does not loop on the rollback.
func (g *Guard) Run(name string, f *ir.Function, am *analysis.AnalysisManager, run func() analysis.PreservedAnalyses) (pa analysis.PreservedAnalyses, failed bool) {
	if g.s == nil {
		g.s = new(Scratch)
	}
	sum := ir.Fingerprint(f)
	cloned := !g.current || g.snapSum != sum
	if cloned {
		g.s.snap, g.snapSum, g.current = ir.CloneInto(g.s.snap, f), sum, true
	}
	if testHookSnapshot != nil {
		testHookSnapshot(f, g.s.snap, cloned)
	}
	pa, panicVal, stack := invoke(run)
	if stack != "" {
		g.contain(name, f, am, FailurePanic, panicVal, stack)
		return analysis.Unchanged(), true
	}
	return pa, false
}

// Reject rolls f back past the invocation Run just made, which returned
// but left IR the verifier refuses with err, and records a FailureVerify.
// The caller then treats the invocation as one that changed nothing.
func (g *Guard) Reject(name string, f *ir.Function, am *analysis.AnalysisManager, err error) {
	g.contain(name, f, am, FailureVerify, err.Error(), "")
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

// contain rolls f back by copying the snapshot into it, invalidates every
// cached analysis (the copy overwrote the objects they were built over),
// and records the failure. f then hashes to the snapshot again, so the
// snapshot stays current for the next invocation.
func (g *Guard) contain(name string, f *ir.Function, am *analysis.AnalysisManager, kind FailureKind, msg, stack string) {
	ir.CloneInto(f, g.s.snap)
	am.InvalidateAll()
	g.failures = append(g.failures, PassFailure{
		Pass:     name,
		Function: f.Name,
		Kind:     kind,
		Err:      msg,
		Stack:    stack,
		IR:       g.s.snap.String(),
	})
}

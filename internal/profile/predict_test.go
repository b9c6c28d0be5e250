package profile

import (
	"strings"
	"testing"

	"uu/internal/codegen"
	"uu/internal/core"
	"uu/internal/gpusim"
	"uu/internal/ir"
)

// loopRow builds a synthetic measured loop row for Evaluate tests.
func loopRow(id, line, iter, dup int32, self int64) LoopRow {
	return LoopRow{
		Meta: codegen.LoopMeta{ID: id, Parent: -1, Line: line, Iter: iter, Dup: dup, Depth: 1},
		Self: self, Cum: self,
	}
}

func TestEvaluateVerdicts(t *testing.T) {
	decide := []core.Decision{{LoopID: 0, HeaderLine: 12, Factor: 3, Paths: 4, Size: 10}}

	// Hit: the hottest loop's line carries a decision.
	r := &Report{Kernel: "k", TotalCycles: 100, Loops: []LoopRow{
		loopRow(0, 12, 0, 0, 80), loopRow(1, 20, 0, 0, 20),
	}}
	ev := Evaluate(r, decide, []core.SkipRecord{{LoopID: 1, HeaderLine: 20, Reason: core.SkipSinglePath}})
	if ev.Verdict != VerdictHit {
		t.Fatalf("verdict = %s, want %s", ev.Verdict, VerdictHit)
	}

	// Deliberate skip of the hottest loop: CORRECT-SKIP, not MISPREDICT.
	r = &Report{Kernel: "k", TotalCycles: 100, Loops: []LoopRow{
		loopRow(0, 12, 0, 0, 20), loopRow(1, 20, 0, 0, 80),
	}}
	ev = Evaluate(r, decide, []core.SkipRecord{{LoopID: 1, HeaderLine: 20, Reason: core.SkipConvergentOp}})
	if ev.Verdict != VerdictCorrectSkip || ev.Reason != core.SkipConvergentOp {
		t.Fatalf("verdict = %s (%s), want %s (ConvergentOp)", ev.Verdict, ev.Reason, VerdictCorrectSkip)
	}
	if ev.Mispredicted() {
		t.Fatalf("CORRECT-SKIP counted as a misprediction")
	}

	// Size-budget rejection of the hottest loop: genuine MISPREDICT.
	ev = Evaluate(r, decide, []core.SkipRecord{{LoopID: 1, HeaderLine: 20, Reason: core.SkipSizeOverBudget}})
	if ev.Verdict != VerdictMispredict || ev.Reason != core.SkipSizeOverBudget {
		t.Fatalf("verdict = %s (%s), want %s", ev.Verdict, ev.Reason, VerdictMispredict)
	}

	// Hottest loop the heuristic never saw: MISPREDICT with NotConsidered.
	ev = Evaluate(r, decide, nil)
	if ev.Verdict != VerdictMispredict || ev.Reason != "NotConsidered" {
		t.Fatalf("verdict = %s (%s), want MISPREDICT (NotConsidered)", ev.Verdict, ev.Reason)
	}
}

// TestEvaluateCloneJoin pins the clone-aware join: unroll/unmerge clones of a
// decided line pool into the decision row; clones of other lines keep their
// full origin as distinct rows and cannot mask or double-count each other.
func TestEvaluateCloneJoin(t *testing.T) {
	decide := []core.Decision{{LoopID: 0, HeaderLine: 12, Factor: 2, Paths: 2, Size: 8}}
	r := &Report{Kernel: "k", TotalCycles: 200, Loops: []LoopRow{
		loopRow(0, 12, 0, 0, 30), // decided base loop
		loopRow(1, 12, 2, 0, 25), // its .u2 clone — pools into the decision
		loopRow(2, 12, 2, 1, 15), // its .u2.d1 clone — pools too
		loopRow(3, 20, 0, 0, 60), // undecided base loop
		loopRow(4, 20, 2, 0, 70), // hot .u2 clone of L20: its own row
	}}
	skips := []core.SkipRecord{{LoopID: 3, HeaderLine: 20, Reason: core.SkipSizeOverBudget}}
	ev := Evaluate(r, decide, skips)

	if len(ev.Selected) != 1 || ev.Selected[0].Self != 70 || ev.Selected[0].Clones != 3 {
		t.Fatalf("decision row: self=%d clones=%d, want 70 over 3 clones",
			ev.Selected[0].Self, ev.Selected[0].Clones)
	}
	if len(ev.Unselected) != 2 {
		t.Fatalf("unselected rows = %d, want 2 (clones must stay distinct): %+v",
			len(ev.Unselected), ev.Unselected)
	}
	// Hottest first; the .u2 clone (70) outranks the base (60), and both carry
	// the skip reason recorded for their shared source line.
	if ev.Unselected[0].Origin != (ir.Loc{Line: 20, Iter: 2}) || ev.Unselected[0].Self != 70 {
		t.Fatalf("hottest unselected = %+v, want L20.u2 self=70", ev.Unselected[0])
	}
	for _, row := range ev.Unselected {
		if row.SkipReason != core.SkipSizeOverBudget {
			t.Fatalf("clone row lost the line's skip reason: %+v", row)
		}
	}
	// The hot clone aliases line 20, which was only rejected by the size
	// model — the verdict must surface the MISPREDICT, not average it away.
	if ev.Verdict != VerdictMispredict || ev.HottestLine != 20 {
		t.Fatalf("verdict = %s at L%d, want MISPREDICT at L20", ev.Verdict, ev.HottestLine)
	}
}

func TestExtractFeedbackSignals(t *testing.T) {
	r := &Report{Kernel: "k", TotalCycles: 100}
	a := loopRow(0, 12, 0, 0, 30)
	a.Counters[gpusim.ProfDivergeEvents] = 4
	a.Counters[gpusim.ProfMemTransactions] = 10
	b := loopRow(1, 12, 2, 0, 40) // clone of L12: sums into one signal
	b.Counters[gpusim.ProfDivergeEvents] = 6
	b.Counters[gpusim.ProfMemIdeal] = 5
	c := loopRow(2, 20, 0, 0, 20)
	r.Loops = []LoopRow{a, b, c}

	fb := ExtractFeedback(r, Evaluate(r, nil, nil), nil, 1.25)
	if fb.Speedup != 1.25 {
		t.Fatalf("speedup = %v", fb.Speedup)
	}
	if len(fb.Signals) != 2 {
		t.Fatalf("signals = %d, want 2 (clones summed per line): %+v", len(fb.Signals), fb.Signals)
	}
	s := fb.Signals[0] // hottest first: L12 with 70 summed self cycles
	if s.Line != 12 || s.SelfCycles != 70 || s.DivergeEvents != 10 ||
		s.MemTransactions != 10 || s.MemIdeal != 5 {
		t.Fatalf("L12 signal = %+v", s)
	}
	if fb.Signals[1].Line != 20 || fb.Signals[1].SelfCycles != 20 {
		t.Fatalf("L20 signal = %+v", fb.Signals[1])
	}
}

func TestWritePredictionRendersSkipsAndForce(t *testing.T) {
	decide := []core.Decision{{LoopID: 0, HeaderLine: 12, Factor: 2, Paths: 2, Size: 8, Forced: true}}
	r := &Report{Kernel: "k", TotalCycles: 100, Loops: []LoopRow{
		loopRow(0, 12, 0, 0, 80), loopRow(1, 20, 0, 0, 20),
	}}
	skips := []core.SkipRecord{{LoopID: 1, HeaderLine: 20, Reason: core.SkipProfileDeny}}
	var sb strings.Builder
	if err := WritePrediction(&sb, r, decide, skips, 1024); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"forced", "skip:ProfileDeny", "selected the hottest loop"} {
		if !strings.Contains(out, want) {
			t.Fatalf("prediction table missing %q:\n%s", want, out)
		}
	}
}

package profile

import (
	"fmt"
	"io"
	"sort"

	"uu/internal/core"
	"uu/internal/gpusim"
	"uu/internal/ir"
)

// Verdict values of the predicted-vs-measured comparison.
const (
	// VerdictHit: the heuristic selected the hottest measured loop.
	VerdictHit = "selected-hottest"
	// VerdictCorrectSkip: the hottest loop was not selected, but the
	// heuristic skipped it deliberately (structural bailout, divergence
	// taint, or a profile deny) — not a size-model failure.
	VerdictCorrectSkip = "CORRECT-SKIP"
	// VerdictMispredict: the hottest loop was not selected and the only
	// reason is the static size model (SizeOverBudget) or the heuristic
	// never considered it — a genuine misprediction.
	VerdictMispredict = "MISPREDICT"
	// VerdictNoLoops: the program has no anchored loops to compare.
	VerdictNoLoops = "no-loops"
)

// Evaluation is the structured result of joining the heuristic's decisions
// and skip records with the measured per-loop profile. The PGO driver
// consumes it directly; WritePrediction renders it.
type Evaluation struct {
	// Selected has one row per decision, with the measured self cycles of
	// the decided source loop summed over all its unroll/unmerge clones.
	Selected []SelectedRow
	// Unselected lists measured loops (full clone origin, not just line)
	// with no covering decision, hottest first.
	Unselected []UnselectedRow
	// Hottest describes the hottest measured loop (by self cycles).
	HottestLabel string
	HottestLine  int32
	HottestSelf  int64
	// Verdict is one of the Verdict* constants; Reason carries the skip
	// reason behind a CORRECT-SKIP or MISPREDICT verdict.
	Verdict string
	Reason  string
}

// SelectedRow pairs one heuristic decision with its measured cost.
type SelectedRow struct {
	Decision core.Decision
	Self     int64 // measured self cycles, summed over the loop's clones
	Clones   int   // number of lowered loops that anchor at the decision line
}

// UnselectedRow is one measured loop the heuristic did not select, keyed by
// full origin so clones of one source loop stay distinct.
type UnselectedRow struct {
	Origin ir.Loc
	Self   int64
	// SkipReason is the heuristic's recorded reason for passing on the
	// loop's source line, "" when it never considered the line.
	SkipReason string
}

// Mispredicted reports whether the evaluation flagged a genuine
// size-model misprediction.
func (e *Evaluation) Mispredicted() bool { return e.Verdict == VerdictMispredict }

// Evaluate joins decisions and skip records with the measured per-loop
// profile.
//
// The join is clone-aware: a lowered loop anchors at a full origin
// (line + unroll-iteration + path-duplication tags, codegen.LoopMeta.Origin).
// Clones whose line carries a decision aggregate into that decision's row —
// they are the decided loop's transformed copies, and their summed self
// cycles are the measured cost of the decision. Every other lowered loop
// keeps its full origin as its own row, so a hot `.u2`/`.d1` clone can
// neither pool into an unrelated base row (masking a misprediction) nor be
// double-counted across rows.
//
// The verdict cross-references the heuristic's skip records: a hottest loop
// the heuristic deliberately skipped (see core.DeliberateSkip) is a
// CORRECT-SKIP; only a size-budget rejection — or a loop the heuristic never
// saw — is a MISPREDICT.
func Evaluate(r *Report, decisions []core.Decision, skips []core.SkipRecord) *Evaluation {
	ev := &Evaluation{Verdict: VerdictNoLoops}

	decided := map[int32]int{} // line -> index in Selected
	for _, d := range decisions {
		decided[d.HeaderLine] = len(ev.Selected)
		ev.Selected = append(ev.Selected, SelectedRow{Decision: d})
	}
	skipReason := map[int32]string{}
	for _, s := range skips {
		if _, dup := skipReason[s.HeaderLine]; !dup {
			skipReason[s.HeaderLine] = s.Reason
		}
	}

	other := map[ir.Loc]*UnselectedRow{}
	for i := range r.Loops {
		l := &r.Loops[i]
		if l.Meta.Line == 0 {
			continue
		}
		if di, ok := decided[l.Meta.Line]; ok {
			ev.Selected[di].Self += l.Self
			ev.Selected[di].Clones++
			continue
		}
		origin := l.Meta.Origin()
		row := other[origin]
		if row == nil {
			row = &UnselectedRow{Origin: origin, SkipReason: skipReason[origin.Line]}
			other[origin] = row
		}
		row.Self += l.Self
	}
	for _, row := range other {
		ev.Unselected = append(ev.Unselected, *row)
	}
	sort.Slice(ev.Unselected, func(i, j int) bool {
		a, b := &ev.Unselected[i], &ev.Unselected[j]
		if a.Self != b.Self {
			return a.Self > b.Self
		}
		if a.Origin.Line != b.Origin.Line {
			return a.Origin.Line < b.Origin.Line
		}
		if a.Origin.Iter != b.Origin.Iter {
			return a.Origin.Iter < b.Origin.Iter
		}
		return a.Origin.Dup < b.Origin.Dup
	})

	hot := r.HottestLoop()
	if hot == nil || hot.Meta.Line == 0 {
		return ev
	}
	ev.HottestLabel = hot.Label()
	ev.HottestLine = hot.Meta.Line
	ev.HottestSelf = hot.Self
	reason, skipped := skipReason[hot.Meta.Line]
	switch _, hit := decided[hot.Meta.Line]; {
	case hit:
		ev.Verdict = VerdictHit
	case skipped && core.DeliberateSkip(reason):
		ev.Verdict, ev.Reason = VerdictCorrectSkip, reason
	case skipped:
		ev.Verdict, ev.Reason = VerdictMispredict, reason
	default:
		ev.Verdict, ev.Reason = VerdictMispredict, "NotConsidered"
	}
	return ev
}

// WritePrediction writes the heuristic's selections next to the measured
// per-loop cycle totals. Selected loops aggregate their clones; unselected
// loops are keyed by full clone origin (see Evaluate). The trailing verdict
// line distinguishes a deliberate CORRECT-SKIP of the hottest loop from a
// genuine MISPREDICT by cross-referencing the heuristic's skip records.
func WritePrediction(w io.Writer, r *Report, decisions []core.Decision, skips []core.SkipRecord, paramC int) error {
	ev := Evaluate(r, decisions, skips)
	bw := &ErrWriter{W: w}
	fmt.Fprintf(bw, "heuristic (C=%d) vs measured — %s (total %d cycles):\n",
		paramC, r.Kernel, r.TotalCycles)
	fmt.Fprintf(bw, "  %-10s %-8s %3s %6s %6s %10s %12s %7s  %s\n",
		"loop", "selected", "u", "paths", "size", "f(p,s,u)", "self_cycles", "self%", "note")

	for _, row := range ev.Selected {
		d := row.Decision
		note := "-"
		if d.Forced {
			note = "forced"
		}
		fmt.Fprintf(bw, "  %-10s %-8s %3d %6d %6d %10d %12d %6.1f%%  %s\n",
			fmt.Sprintf("L%d", d.HeaderLine), "yes",
			d.Factor, d.Paths, d.Size, d.Estimated, row.Self, pct(row.Self, r.TotalCycles), note)
	}
	for _, row := range ev.Unselected {
		note := "-"
		if row.SkipReason != "" {
			note = "skip:" + row.SkipReason
		}
		fmt.Fprintf(bw, "  %-10s %-8s %3s %6s %6s %10s %12d %6.1f%%  %s\n",
			row.Origin.String(), "no", "-", "-", "-", "-",
			row.Self, pct(row.Self, r.TotalCycles), note)
	}

	switch ev.Verdict {
	case VerdictHit:
		fmt.Fprintf(bw, "  -> hottest loop %s: %d self cycles (%.1f%%) — the heuristic selected the hottest loop\n",
			ev.HottestLabel, ev.HottestSelf, pct(ev.HottestSelf, r.TotalCycles))
	case VerdictCorrectSkip:
		fmt.Fprintf(bw, "  -> hottest loop %s: %d self cycles (%.1f%%) — CORRECT-SKIP: deliberately skipped (%s)\n",
			ev.HottestLabel, ev.HottestSelf, pct(ev.HottestSelf, r.TotalCycles), ev.Reason)
	case VerdictMispredict:
		fmt.Fprintf(bw, "  -> hottest loop %s: %d self cycles (%.1f%%) — MISPREDICT: the heuristic did not select the hottest loop (%s)\n",
			ev.HottestLabel, ev.HottestSelf, pct(ev.HottestSelf, r.TotalCycles), ev.Reason)
	}
	return bw.Err
}

// ExtractFeedback distills the measured report into the per-loop signals and
// verdict the PGO policy (core.SuggestOverrides) consumes. ev is
// Evaluate(r, decisions, ...), which the caller has already joined; speedup
// is the app-level baseline/heuristic time ratio for this round (0 =
// unknown).
func ExtractFeedback(r *Report, ev *Evaluation, decisions []core.Decision, speedup float64) core.Feedback {
	fb := core.Feedback{
		Speedup:    speedup,
		Decisions:  decisions,
		Mispredict: ev.Mispredicted(),
	}
	if fb.Mispredict {
		fb.MispredictLine = ev.HottestLine
	}

	// Per-source-line signals, summed over clone loops so the policy sees
	// the total measured cost of each source loop.
	byLine := map[int32]*core.LoopSignal{}
	var order []int32
	for i := range r.Loops {
		l := &r.Loops[i]
		if l.Meta.Line == 0 {
			continue
		}
		sig := byLine[l.Meta.Line]
		if sig == nil {
			sig = &core.LoopSignal{Line: l.Meta.Line}
			byLine[l.Meta.Line] = sig
			order = append(order, l.Meta.Line)
		}
		sig.SelfCycles += l.Self
		sig.DivergeEvents += l.Counters[gpusim.ProfDivergeEvents]
		sig.ReconvEvents += l.Counters[gpusim.ProfReconvEvents]
		sig.FetchStallCycles += l.Counters[gpusim.ProfFetchStall]
		sig.DepStallCycles += fpRound(l.Counters[gpusim.ProfDepStall])
		sig.MemTransactions += l.Counters[gpusim.ProfMemTransactions]
		sig.MemIdeal += l.Counters[gpusim.ProfMemIdeal]
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := byLine[order[i]], byLine[order[j]]
		if a.SelfCycles != b.SelfCycles {
			return a.SelfCycles > b.SelfCycles
		}
		return a.Line < b.Line
	})
	for _, line := range order {
		fb.Signals = append(fb.Signals, *byLine[line])
	}
	return fb
}

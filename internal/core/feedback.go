package core

import (
	"fmt"
)

// This file is the policy half of the profile-guided (PGO) loop: given
// measured per-loop signals and the app-level outcome of one
// compile→simulate round, derive the per-loop overrides for the next round.
// Signal extraction from gpusim profiles lives in internal/profile
// (ExtractFeedback); the campaign driver lives in internal/bench (RunPGOCtx).
// Keeping the policy here means pipeline and serve can consume overrides
// without importing the profiler.

// LoopSignal is the measured per-loop evidence one simulation round produced,
// keyed by the loop's anchoring source line (ir.BlockLine). Cycle-like fields are
// aggregated over the loop body including all unroll/unmerge clones.
type LoopSignal struct {
	Line             int32
	SelfCycles       int64 // issue cycles attributed to the loop body
	DivergeEvents    int64
	ReconvEvents     int64
	FetchStallCycles int64
	DepStallCycles   int64
	MemTransactions  int64 // actual memory transactions
	MemIdeal         int64 // fully-coalesced lower bound
}

// String renders a signal row for reports.
func (s LoopSignal) String() string {
	return fmt.Sprintf("L%d self=%d div=%d reconv=%d fetch-stall=%d dep-stall=%d mem=%d/%d",
		s.Line, s.SelfCycles, s.DivergeEvents, s.ReconvEvents,
		s.FetchStallCycles, s.DepStallCycles, s.MemTransactions, s.MemIdeal)
}

// Feedback is everything the override policy needs to know about one measured
// round for one app.
type Feedback struct {
	// Speedup is baseline-millis / heuristic-millis for this round; 0 means
	// unknown (no baseline measurement available).
	Speedup float64
	// Decisions are the heuristic selections of the measured build.
	Decisions []Decision
	// Mispredict reports that the hottest measured loop was not selected and
	// was not deliberately skipped (see DeliberateSkip) — the static model
	// got it wrong.
	Mispredict bool
	// MispredictLine is the hottest loop's anchoring line when Mispredict.
	MispredictLine int32
	// Signals are the measured per-loop rows, hottest first.
	Signals []LoopSignal
}

// DeadBand is the speedup below which a round counts as a regression worth
// reacting to. Runs in (DeadBand, 1.0) are treated as noise: demoting on them
// would trade measured-neutral transforms for churn that may never converge.
const DeadBand = 0.98

// SuggestOverrides derives the next round's override set from this round's
// measurement, layered over the current set. It returns the new set and
// whether anything changed; unchanged means the PGO loop has converged for
// this app. prev is not mutated.
//
// The policy is a demotion ladder plus a one-shot promotion:
//
//   - Regressing app (speedup < DeadBand): every selected loop steps down one
//     rung — factor > 2 becomes cap=2, factor 2 becomes cap=1 (unmerge-only),
//     factor 1 becomes deny. A Force override is dropped on demotion: if the
//     static model then deselects the loop again the promotion guard below
//     keeps us from re-forcing it, so the ladder is monotone.
//
//   - Mispredicted hottest loop: promoted to force+cap=2 (the conservative
//     entry factor), but only if the line has no override history — a line
//     that was already demoted or denied is never re-promoted, which is what
//     guarantees convergence.
func SuggestOverrides(prev map[int32]LoopOverride, fb Feedback) (map[int32]LoopOverride, bool) {
	out := make(map[int32]LoopOverride, len(prev)+1)
	for line, o := range prev {
		out[line] = o
	}
	changed := false
	set := func(line int32, o LoopOverride) {
		if out[line] != o {
			out[line] = o
			changed = true
		}
	}

	if fb.Speedup > 0 && fb.Speedup < DeadBand {
		for _, d := range fb.Decisions {
			switch {
			case d.Factor > 2:
				set(d.HeaderLine, LoopOverride{FactorCap: 2})
			case d.Factor == 2:
				set(d.HeaderLine, LoopOverride{FactorCap: 1})
			default:
				set(d.HeaderLine, LoopOverride{Deny: true})
			}
		}
	}

	if fb.Mispredict {
		if _, seen := out[fb.MispredictLine]; !seen {
			set(fb.MispredictLine, LoopOverride{Force: true, FactorCap: 2})
		}
	}
	return out, changed
}

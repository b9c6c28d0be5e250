package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"uu/internal/analysis"
	"uu/internal/ir"
	"uu/internal/remark"
)

// HeuristicParams are the knobs of the paper's selection heuristic
// (Section III-C): a loop is transformed when some unroll factor
// 2 <= u <= UMax keeps the estimated post-u&u size f(p, s, u) below C; the
// largest such factor is chosen. The paper evaluates with C = 1024 and
// UMax = 8.
type HeuristicParams struct {
	C    int
	UMax int
	// SkipDivergent additionally skips loops containing a branch on a
	// thread-id-dependent condition — the taint-analysis extension the paper
	// proposes in Section V to avoid `complex`-style slowdowns. Off by
	// default to match the published heuristic.
	SkipDivergent bool
	// Overrides are per-loop directives derived from measured profiles (the
	// PGO loop) or supplied explicitly, keyed by the loop's anchoring source
	// line (ir.BlockLine). They take precedence over the static f(p, s, u) < C
	// model for the loops they name; all other loops are decided statically.
	Overrides map[int32]LoopOverride
}

// LoopOverride is one per-loop selection directive. The zero value means "no
// override" (pure static decision).
type LoopOverride struct {
	// Deny unconditionally deselects the loop (measured regression: the
	// transformation made this loop slower).
	Deny bool
	// Force selects the loop even when the static model rejects it
	// (SizeOverBudget) or the divergence taint would skip it. A forced loop
	// is transformed at FactorCap (or UMax when no cap is set) — the profile
	// directive is trusted over the size budget. Structurally
	// untransformable loops (convergent ops, multiple latches, single path)
	// are still skipped.
	Force bool
	// FactorCap bounds the unroll factor from above; 1 means unmerge-only
	// (the paper's `unmerge` comparator applied to just this loop). 0 means
	// no cap.
	FactorCap int
}

// IsZero reports whether the override carries no directive.
func (o LoopOverride) IsZero() bool { return o == LoopOverride{} }

// String renders the override canonically ("deny", "force,cap=2", "cap=4").
func (o LoopOverride) String() string {
	var parts []string
	if o.Deny {
		parts = append(parts, "deny")
	}
	if o.Force {
		parts = append(parts, "force")
	}
	if o.FactorCap > 0 {
		parts = append(parts, fmt.Sprintf("cap=%d", o.FactorCap))
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// DefaultHeuristicParams returns the paper's evaluation setting.
func DefaultHeuristicParams() HeuristicParams { return HeuristicParams{C: 1024, UMax: 8} }

// FillDefaults returns the params with unset C/UMax replaced by the paper's
// defaults, leaving the mode switches and overrides untouched.
func (p HeuristicParams) FillDefaults() HeuristicParams {
	d := DefaultHeuristicParams()
	if p.C == 0 {
		p.C = d.C
	}
	if p.UMax == 0 {
		p.UMax = d.UMax
	}
	return p
}

// OverridesString renders an override set canonically (sorted by line), the
// form cache fingerprints and reports use. Empty sets render as "-".
func OverridesString(ov map[int32]LoopOverride) string {
	if len(ov) == 0 {
		return "-"
	}
	lines := make([]int32, 0, len(ov))
	for line, o := range ov {
		if o.IsZero() {
			continue
		}
		lines = append(lines, line)
	}
	if len(lines) == 0 {
		return "-"
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	var sb strings.Builder
	for i, line := range lines {
		if i > 0 {
			sb.WriteString(" ")
		}
		fmt.Fprintf(&sb, "L%d:%s", line, ov[line])
	}
	return sb.String()
}

// ParseOverrides parses the textual override-set syntax used by CLI flags
// and the serve API: comma-separated "L<line>:<directive>[+<directive>...]"
// items where a directive is "deny", "force", or "cap=<n>", e.g.
// "L10:deny,L12:force+cap=2".
func ParseOverrides(s string) (map[int32]LoopOverride, error) {
	out := map[int32]LoopOverride{}
	if strings.TrimSpace(s) == "" {
		return out, nil
	}
	for _, item := range strings.Split(s, ",") {
		item = strings.TrimSpace(item)
		line, directives, ok := strings.Cut(item, ":")
		if !ok || !strings.HasPrefix(line, "L") {
			return nil, fmt.Errorf("core: bad override %q (want L<line>:<directive>)", item)
		}
		n, err := strconv.ParseInt(line[1:], 10, 32)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("core: bad override line %q", line)
		}
		var ov LoopOverride
		for _, d := range strings.Split(directives, "+") {
			switch {
			case d == "deny":
				ov.Deny = true
			case d == "force":
				ov.Force = true
			case strings.HasPrefix(d, "cap="):
				c, err := strconv.Atoi(d[4:])
				if err != nil || c < 1 {
					return nil, fmt.Errorf("core: bad override cap %q", d)
				}
				ov.FactorCap = c
			default:
				return nil, fmt.Errorf("core: unknown override directive %q", d)
			}
		}
		if ov.Deny && ov.Force {
			return nil, fmt.Errorf("core: override %s is both deny and force", line)
		}
		out[int32(n)] = ov
	}
	return out, nil
}

// MergeOverrides layers explicit overrides over derived ones: for every line
// named by both, the explicit directive wins. Neither input is mutated.
func MergeOverrides(derived, explicit map[int32]LoopOverride) map[int32]LoopOverride {
	if len(derived) == 0 {
		return explicit
	}
	out := make(map[int32]LoopOverride, len(derived)+len(explicit))
	for line, o := range derived {
		out[line] = o
	}
	for line, o := range explicit {
		out[line] = o
	}
	return out
}

// Decision records one loop the heuristic chose and why.
type Decision struct {
	LoopID int
	// Header names the loop's header block. A decision outlives the
	// function it was taken on (bench.Run releases it), so it holds no IR.
	Header     string
	HeaderLine int32 // source line anchoring the loop (ir.BlockLine): stable across configurations
	Factor     int
	Paths      int
	Size       int
	Estimated  int64 // f(p, s, factor)
	Forced     bool  // selected by a profile Force override, not the static model
}

// Skip reasons, mirroring the missed-remark names emitted by the heuristic.
const (
	SkipInnerLoopChosen = "InnerLoopChosen"
	SkipConvergentOp    = "ConvergentOp"
	SkipMultipleLatches = "MultipleLatches"
	SkipDivergentBranch = "DivergentBranch"
	SkipSinglePath      = "SinglePath"
	SkipSizeOverBudget  = "SizeOverBudget"
	SkipProfileDeny     = "ProfileDeny"
)

// SkipRecord documents one loop the heuristic considered and deliberately did
// not select, and why. The profiler's predicted-vs-measured report uses these
// to distinguish a CORRECT-SKIP (the heuristic knowingly passed on the
// hottest loop) from a genuine MISPREDICT.
type SkipRecord struct {
	LoopID     int
	HeaderLine int32
	Reason     string
}

// DeliberateSkip reports whether a skip reason represents an intentional
// decision not to transform (structural impossibility, divergence taint, or a
// profile deny) as opposed to the size model rejecting the loop. A hottest
// loop skipped for a deliberate reason is a CORRECT-SKIP, not a MISPREDICT;
// SizeOverBudget is the static model being wrong about a profitable loop.
func DeliberateSkip(reason string) bool {
	switch reason {
	case SkipInnerLoopChosen, SkipConvergentOp, SkipMultipleLatches,
		SkipDivergentBranch, SkipSinglePath, SkipProfileDeny:
		return true
	}
	return false
}

// HeuristicDecide selects the loops to transform and their unroll factors,
// innermost loops first; an outer loop is considered only when none of its
// (transitive) inner loops was selected, as in the paper. Loops with
// convergent operations, without a unique latch, or without any control flow
// to unmerge (single path) are skipped. Alongside the selections it returns a
// skip record for every loop it considered and rejected, so reports can tell
// deliberate skips from size-model mispredictions.
func HeuristicDecide(f *ir.Function, params HeuristicParams) ([]Decision, []SkipRecord) {
	return heuristicDecide(f, analysis.NewAnalysisManager(f), params)
}

// heuristicDecide is HeuristicDecide against a caller-provided analysis
// manager. It only reads the function.
func heuristicDecide(f *ir.Function, am *analysis.AnalysisManager, params HeuristicParams) ([]Decision, []SkipRecord) {
	li := am.LoopInfo()
	var div *analysis.Divergence
	if params.SkipDivergent {
		div = analysis.NewDivergence(f)
	}

	rc := am.Remarks()
	var skips []SkipRecord
	missed := func(l *analysis.Loop, name string, args ...remark.Arg) {
		skips = append(skips, SkipRecord{
			LoopID: l.ID, HeaderLine: ir.BlockLine(l.Header), Reason: name,
		})
		if !rc.Enabled() {
			return
		}
		rc.Emit(remark.Remark{
			Kind: remark.Missed, Pass: "uu-heuristic", Name: name,
			Function: f.Name, Block: l.Header.Name,
			Args: append([]remark.Arg{remark.Int("Loop", int64(l.ID))}, args...),
		})
	}

	chosen := map[*analysis.Loop]bool{}
	var decisions []Decision
	// Innermost-first: loops are ordered outer-first, so iterate backwards.
	for i := len(li.Loops) - 1; i >= 0; i-- {
		l := li.Loops[i]
		ov := params.Overrides[ir.BlockLine(l.Header)]
		if hasChosenDescendant(l, chosen) {
			missed(l, SkipInnerLoopChosen)
			continue
		}
		if ov.Deny {
			missed(l, SkipProfileDeny)
			continue
		}
		if l.HasConvergentOp() {
			missed(l, SkipConvergentOp)
			continue
		}
		if l.Latch() == nil {
			missed(l, SkipMultipleLatches)
			continue
		}
		// A Force override is a measured-profitability directive: it outranks
		// the static divergence taint and the size budget, but not structural
		// impossibility (checked above / single-path below).
		if !ov.Force && div != nil && div.LoopHasDivergentBranch(l) {
			missed(l, SkipDivergentBranch)
			continue
		}
		p := analysis.CountPaths(l)
		if p < 2 {
			missed(l, SkipSinglePath)
			continue // nothing to unmerge
		}
		s := analysis.LoopSize(l)
		umax := params.UMax
		if ov.FactorCap > 0 && ov.FactorCap < umax {
			umax = ov.FactorCap
		}
		factor := 0
		var est int64
		switch {
		case ov.Force:
			// Trust the profile: transform at the cap (or UMax) regardless of
			// the f(p, s, u) < C budget.
			factor = umax
			est = analysis.UnmergedSize(p, s, factor)
		case umax < 2:
			// FactorCap == 1: unmerge-only for this loop, no unrolling.
			factor = 1
			est = analysis.UnmergedSize(p, s, 1)
		default:
			for u := umax; u >= 2; u-- {
				if e := analysis.UnmergedSize(p, s, u); e < int64(params.C) {
					factor, est = u, e
					break
				}
			}
		}
		if factor == 0 {
			missed(l, SkipSizeOverBudget,
				remark.Int("Paths", int64(p)),
				remark.Int("Size", int64(s)),
				remark.Int("EstimatedAtUMin", analysis.UnmergedSize(p, s, 2)),
				remark.Int("C", int64(params.C)))
			continue
		}
		chosen[l] = true
		decisions = append(decisions, Decision{
			LoopID: l.ID, Header: l.Header.Name, HeaderLine: ir.BlockLine(l.Header),
			Factor: factor, Paths: p, Size: s, Estimated: est, Forced: ov.Force,
		})
		if rc.Enabled() {
			rc.Emit(remark.Remark{
				Kind: remark.Passed, Pass: "uu-heuristic", Name: "LoopSelected",
				Function: f.Name, Block: l.Header.Name,
				Args: []remark.Arg{
					remark.Int("Loop", int64(l.ID)),
					remark.Int("Paths", int64(p)),
					remark.Int("Size", int64(s)),
					remark.Int("Factor", int64(factor)),
					remark.Int("Estimated", est),
					remark.Int("C", int64(params.C)),
				},
			})
		}
	}
	return decisions, skips
}

func hasChosenDescendant(l *analysis.Loop, chosen map[*analysis.Loop]bool) bool {
	for _, c := range l.Children {
		if chosen[c] || hasChosenDescendant(c, chosen) {
			return true
		}
	}
	return false
}

// ApplyHeuristicWith runs HeuristicDecide over the function am is bound to
// and applies u&u to each selected loop (deepest selections were decided
// first and are applied first). It returns the decisions taken and the skips
// recorded, unmerging in s. Callers must treat the manager as fully invalid
// afterwards (uuLoop normalizes loops even on error paths).
func ApplyHeuristicWith(am *analysis.AnalysisManager, params HeuristicParams, opts Options, s *Scratch) ([]Decision, []SkipRecord) {
	f := am.Function()
	decisions, skips := heuristicDecide(f, am, params)
	for _, d := range decisions {
		// Re-resolve through the manager: earlier applications invalidated it.
		l := loopWithHeader(am.LoopInfo(), f.BlockByName(d.Header))
		if l == nil {
			continue
		}
		// Errors here mean the loop became untransformable after an earlier
		// application (possible for overlapping nests); skip it.
		_, _ = uuLoop(f, am, l, d.Factor, opts, s)
	}
	return decisions, skips
}

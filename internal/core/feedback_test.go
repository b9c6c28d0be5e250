package core

import (
	"testing"

	"uu/internal/ir"
)

// stampLine gives f's loop header (named name) a source line so override
// tests can key on it; parsed test IR carries no provenance.
func stampLine(t *testing.T, f *ir.Function, name string, line int32) {
	t.Helper()
	for _, b := range f.Blocks() {
		if b.Name == name {
			b.Term().SetLoc(ir.Loc{Line: line})
			return
		}
	}
	t.Fatalf("no block %q", name)
}

// goodOverrides are override specs ParseOverrides accepts, each with its
// canonical OverridesString rendering; badOverrides are specs it refuses.
// FuzzParseOverrides starts from both.
var (
	goodOverrides = []struct {
		in   string
		want string
	}{
		{"", "-"},
		{"L10:deny", "L10:deny"},
		{"L12:force+cap=2", "L12:force,cap=2"},
		{"L7:cap=1", "L7:cap=1"},
		{"L12:force+cap=2, L10:deny", "L10:deny L12:force,cap=2"},
	}
	badOverrides = []string{"10:deny", "L0:deny", "Lx:deny", "L5:wat", "L5:cap=0", "L5:deny+force"}
)

func TestParseOverridesRoundTrip(t *testing.T) {
	for _, c := range goodOverrides {
		ov, err := ParseOverrides(c.in)
		if err != nil {
			t.Fatalf("ParseOverrides(%q): %v", c.in, err)
		}
		if got := OverridesString(ov); got != c.want {
			t.Errorf("ParseOverrides(%q) renders %q, want %q", c.in, got, c.want)
		}
	}

	for _, bad := range badOverrides {
		if _, err := ParseOverrides(bad); err == nil {
			t.Errorf("ParseOverrides(%q) accepted invalid input", bad)
		}
	}
}

func TestMergeOverridesExplicitWins(t *testing.T) {
	derived := map[int32]LoopOverride{10: {Deny: true}, 12: {FactorCap: 2}}
	explicit := map[int32]LoopOverride{10: {Force: true, FactorCap: 4}}
	out := MergeOverrides(derived, explicit)
	if got := out[10]; got != (LoopOverride{Force: true, FactorCap: 4}) {
		t.Errorf("explicit override lost the merge: %v", got)
	}
	if got := out[12]; got != (LoopOverride{FactorCap: 2}) {
		t.Errorf("derived-only override dropped: %v", got)
	}
	if derived[10] != (LoopOverride{Deny: true}) {
		t.Errorf("MergeOverrides mutated its input")
	}
}

// TestSuggestOverridesLadder walks the demotion ladder end to end: a
// regressing app demotes each selected loop one rung per round
// (factor>2 → cap=2 → cap=1 → deny) and never climbs back up, so the
// override set reaches a fixed point in at most four rounds.
func TestSuggestOverridesLadder(t *testing.T) {
	decide := func(factor int, forced bool) []Decision {
		return []Decision{{HeaderLine: 10, Factor: factor, Forced: forced}}
	}
	regress := func(prev map[int32]LoopOverride, ds []Decision) (map[int32]LoopOverride, bool) {
		return SuggestOverrides(prev, Feedback{Speedup: 0.5, Decisions: ds})
	}

	ov, changed := regress(nil, decide(8, true))
	if !changed || ov[10] != (LoopOverride{FactorCap: 2}) {
		t.Fatalf("rung 1: got %v changed=%t, want cap=2", ov[10], changed)
	}
	// Force is dropped on demotion — the next round runs the cap honestly.
	if ov[10].Force {
		t.Fatalf("demotion preserved Force")
	}
	ov, changed = regress(ov, decide(2, false))
	if !changed || ov[10] != (LoopOverride{FactorCap: 1}) {
		t.Fatalf("rung 2: got %v, want cap=1", ov[10])
	}
	ov, changed = regress(ov, decide(1, false))
	if !changed || ov[10] != (LoopOverride{Deny: true}) {
		t.Fatalf("rung 3: got %v, want deny", ov[10])
	}
	// Denied: the loop no longer appears in decisions, the set is stable.
	if _, changed = regress(ov, nil); changed {
		t.Fatalf("override set changed after deny — ladder is not a fixed point")
	}
}

func TestSuggestOverridesPromotionOnce(t *testing.T) {
	// A mispredicted hottest loop with no history is promoted conservatively.
	ov, changed := SuggestOverrides(nil, Feedback{Speedup: 1.0, Mispredict: true, MispredictLine: 14})
	if !changed || ov[14] != (LoopOverride{Force: true, FactorCap: 2}) {
		t.Fatalf("promotion: got %v, want force,cap=2", ov[14])
	}
	// A line with override history is never re-promoted (convergence guard).
	prev := map[int32]LoopOverride{14: {Deny: true}}
	ov, changed = SuggestOverrides(prev, Feedback{Speedup: 1.0, Mispredict: true, MispredictLine: 14})
	if changed || ov[14] != (LoopOverride{Deny: true}) {
		t.Fatalf("denied line was re-promoted: %v changed=%t", ov[14], changed)
	}
	// Neutral rounds inside the dead band change nothing.
	if _, changed = SuggestOverrides(nil, Feedback{Speedup: 0.99,
		Decisions: []Decision{{HeaderLine: 10, Factor: 4}}}); changed {
		t.Fatalf("dead-band round demoted a loop")
	}
}

func TestOverrideDeny(t *testing.T) {
	f := parse(t, bezierLoop)
	stampLine(t, f, "H", 12)
	params := DefaultHeuristicParams()
	params.Overrides = map[int32]LoopOverride{12: {Deny: true}}
	ds, skips := HeuristicDecide(f, params)
	if len(ds) != 0 {
		t.Fatalf("denied loop was selected: %+v", ds)
	}
	if len(skips) != 1 || skips[0].Reason != SkipProfileDeny || skips[0].HeaderLine != 12 {
		t.Fatalf("want one ProfileDeny skip at L12, got %+v", skips)
	}
}

func TestOverrideFactorCap(t *testing.T) {
	f := parse(t, bezierLoop)
	stampLine(t, f, "H", 12)
	// Uncapped, a huge budget picks UMax.
	ds, _ := HeuristicDecide(f, HeuristicParams{C: 1 << 30, UMax: 8})
	if len(ds) != 1 || ds[0].Factor != 8 {
		t.Fatalf("baseline: want factor 8, got %+v", ds)
	}
	params := HeuristicParams{C: 1 << 30, UMax: 8,
		Overrides: map[int32]LoopOverride{12: {FactorCap: 2}}}
	ds, _ = HeuristicDecide(f, params)
	if len(ds) != 1 || ds[0].Factor != 2 {
		t.Fatalf("cap=2: want factor 2, got %+v", ds)
	}
	// cap=1 is unmerge-only: still selected, at factor 1.
	params.Overrides[12] = LoopOverride{FactorCap: 1}
	ds, _ = HeuristicDecide(f, params)
	if len(ds) != 1 || ds[0].Factor != 1 {
		t.Fatalf("cap=1: want factor 1 (unmerge-only), got %+v", ds)
	}
}

func TestOverrideForceBypassesBudget(t *testing.T) {
	f := parse(t, bezierLoop)
	stampLine(t, f, "H", 12)
	// A tiny budget rejects the loop statically...
	ds, skips := HeuristicDecide(f, HeuristicParams{C: 10, UMax: 8})
	if len(ds) != 0 {
		t.Fatalf("tiny budget selected a loop: %+v", ds)
	}
	if len(skips) != 1 || skips[0].Reason != SkipSizeOverBudget {
		t.Fatalf("want SizeOverBudget skip, got %+v", skips)
	}
	// ...but Force trusts the profile over the size model.
	params := HeuristicParams{C: 10, UMax: 8,
		Overrides: map[int32]LoopOverride{12: {Force: true, FactorCap: 2}}}
	ds, _ = HeuristicDecide(f, params)
	if len(ds) != 1 || ds[0].Factor != 2 || !ds[0].Forced {
		t.Fatalf("force+cap=2 under tiny budget: got %+v", ds)
	}
}

func TestOverrideForceRespectsStructure(t *testing.T) {
	// Force cannot conjure control flow: a single-path loop stays skipped.
	src := `
func @straight(i64 %n) -> i64 {
entry:
  br %H
H:
  %i = phi i64 [ 0, %entry ], [ %i2, %H ]
  %i2 = add i64 %i, i64 1
  %c = icmp slt i64 %i2, i64 %n
  condbr i1 %c, %H, %exit
exit:
  %r = phi i64 [ %i2, %H ]
  ret i64 %r
}
`
	f := parse(t, src)
	stampLine(t, f, "H", 5)
	params := DefaultHeuristicParams()
	params.Overrides = map[int32]LoopOverride{5: {Force: true}}
	ds, skips := HeuristicDecide(f, params)
	if len(ds) != 0 {
		t.Fatalf("force selected a single-path loop: %+v", ds)
	}
	if len(skips) != 1 || skips[0].Reason != SkipSinglePath {
		t.Fatalf("want SinglePath skip, got %+v", skips)
	}
}

func TestDeliberateSkipTaxonomy(t *testing.T) {
	for _, r := range []string{SkipInnerLoopChosen, SkipConvergentOp, SkipMultipleLatches,
		SkipDivergentBranch, SkipSinglePath, SkipProfileDeny} {
		if !DeliberateSkip(r) {
			t.Errorf("%s should be a deliberate skip", r)
		}
	}
	if DeliberateSkip(SkipSizeOverBudget) {
		t.Errorf("SizeOverBudget is the model being wrong, not a deliberate skip")
	}
}

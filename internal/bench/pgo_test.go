package bench

import (
	"bytes"
	"context"
	"testing"

	"uu/internal/core"
	"uu/internal/profile"
)

// TestPGOConvergence runs the full feedback loop over the golden profile
// corpus and pins the headline acceptance criteria: the campaign converges
// within the ladder depth, no MISPREDICT verdict survives, bezier-surface
// keeps its paper-scale speedup, and complex ends at least neutral.
func TestPGOConvergence(t *testing.T) {
	res, err := RunPGOCtx(context.Background(), PGOOptions{Apps: remarkCorpusApps})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("campaign did not converge within %d rounds", len(res.Rounds))
	}
	if len(res.Rounds) > 4 {
		t.Fatalf("converged in %d rounds; the demotion ladder bounds this at 4", len(res.Rounds))
	}
	if n := res.Mispredicts(); n != 0 {
		t.Fatalf("%d MISPREDICT verdict(s) survive the campaign", n)
	}
	if s := finalSpeedup(res, "bezier-surface"); s < 1.5 {
		t.Fatalf("bezier-surface final speedup %.3f < 1.5", s)
	}
	if s := finalSpeedup(res, "complex"); s < 1.0 {
		t.Fatalf("complex final speedup %.3f < 1.0 — feedback did not recover the regression", s)
	}
	for _, a := range res.Final() {
		if a.Skipped != "" {
			t.Fatalf("%s: heuristic compile skipped: %s", a.App, a.Skipped)
		}
	}
}

// TestPGORecoversForcedCollapse is the recovery case study: seeding complex
// with the paper's force+cap=8 override reproduces the u=8 collapse
// (≈0.06×), and the feedback loop must dig it back out to at least neutral
// by demoting the loop down the ladder.
func TestPGORecoversForcedCollapse(t *testing.T) {
	res, err := RunPGOCtx(context.Background(), PGOOptions{
		Apps: []string{"complex"},
		Seed: map[string]map[int32]core.LoopOverride{
			"complex": {10: {Force: true, FactorCap: 8}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	first := res.Rounds[0].Apps[0]
	if first.Speedup >= 0.5 {
		t.Fatalf("seeded force+cap=8 did not reproduce the collapse: round 1 speedup %.3f", first.Speedup)
	}
	if !res.Converged {
		t.Fatalf("recovery did not converge in %d rounds", len(res.Rounds))
	}
	if s := finalSpeedup(res, "complex"); s < 1.0 {
		t.Fatalf("final speedup %.3f < 1.0 after recovery", s)
	}
	// The ladder must have stepped the forced loop down, not re-forced it.
	final := res.Final()[0]
	if ov := final.Overrides[10]; ov.Force {
		t.Fatalf("collapsed loop still forced in the final round: %v", ov)
	}
}

// TestPGOForcePathPromotion drives the promotion side: with a starved size
// budget the static model rejects bezier-surface's hot loop (SizeOverBudget
// — a genuine MISPREDICT), and the next round must force it back in and
// clear the verdict.
func TestPGOForcePathPromotion(t *testing.T) {
	res, err := RunPGOCtx(context.Background(), PGOOptions{
		Apps:      []string{"bezier-surface"},
		Heuristic: core.HeuristicParams{C: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	first := res.Rounds[0].Apps[0]
	if first.Verdict != profile.VerdictMispredict || first.Reason != core.SkipSizeOverBudget {
		t.Fatalf("round 1 verdict = %s(%s), want MISPREDICT(SizeOverBudget)", first.Verdict, first.Reason)
	}
	if !res.Converged || res.Mispredicts() != 0 {
		t.Fatalf("promotion did not clear the misprediction: converged=%t mispredicts=%d",
			res.Converged, res.Mispredicts())
	}
	final := res.Final()[0]
	if len(final.Decisions) != 1 || !final.Decisions[0].Forced {
		t.Fatalf("final round did not force-select the loop: %+v", final.Decisions)
	}
	if final.Speedup < 1.0 {
		t.Fatalf("forced re-selection still regresses: %.3f", final.Speedup)
	}
}

// TestPGODeterminism pins that the campaign — and its rendered report — is
// byte-identical under any worker-pool configuration.
func TestPGODeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	render := func(workers int) []byte {
		res, err := RunPGOCtx(context.Background(), PGOOptions{
			Apps:    remarkCorpusApps,
			Workers: workers,
			Seed: map[string]map[int32]core.LoopOverride{
				"complex": {10: {Force: true, FactorCap: 8}},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WritePGOReport(&buf, res); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := render(1)
	parallel := render(4)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("PGO report differs across worker configurations:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s",
			serial, parallel)
	}
}

// finalSpeedup returns the final-round speedup for an app (0 if absent).
func finalSpeedup(r *PGOResult, app string) float64 {
	for _, a := range r.Final() {
		if a.App == app {
			return a.Speedup
		}
	}
	return 0
}

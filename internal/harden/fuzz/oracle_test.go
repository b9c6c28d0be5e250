package fuzz

import (
	"strings"
	"testing"

	"uu/internal/analysis"
	"uu/internal/harden"
	"uu/internal/pipeline"
	"uu/internal/transform"
)

// TestOracleCleanOnHealthyPipeline is the core soundness check: the real
// pipeline must never diverge from the unoptimized reference on generated
// kernels, across every configuration.
func TestOracleCleanOnHealthyPipeline(t *testing.T) {
	res, err := RunCampaign(CampaignOptions{Count: 30, Seed: 1, VerifyEach: true})
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	if len(res.Findings) != 0 {
		t.Fatalf("healthy pipeline diverged: %v", res.Findings[0].Div.String())
	}
	if len(res.Failures) != 0 {
		t.Fatalf("healthy pipeline had contained failures: %v", res.Failures)
	}
	if res.Checks == 0 || res.Kernels != 30 {
		t.Fatalf("campaign did no work: %+v", res)
	}
}

// miscompileSeed is a seed whose generated kernel visibly changes output
// when the chaos pass flips a branch condition (found by scanning; pinned
// so the test is deterministic).
func findMiscompileSeed(t *testing.T) int64 {
	t.Helper()
	for seed := int64(1); seed < 60; seed++ {
		k := harden.Generate(seed)
		opts := pipeline.Options{
			Config: pipeline.Baseline, VerifyEachPass: true, Contain: true,
			Inject: []analysis.Pass{transform.ChaosPass(transform.ChaosMiscompile)},
		}
		div, _, err := check(k.F, k, opts, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if div != nil && div.Stage != "optimize" {
			return seed
		}
	}
	t.Fatalf("no seed in [1,60) exposes the injected miscompile")
	return 0
}

// TestOracleCatchesMiscompile proves the differential matrix detects a
// verifier-clean wrong transform — the failure mode the verifier (and so
// containment) cannot see, pinned from the other side by the pipeline's
// TestMiscompileInjectionEvadesVerifier.
func TestOracleCatchesMiscompile(t *testing.T) {
	seed := findMiscompileSeed(t)
	k := harden.Generate(seed)
	opts := pipeline.Options{
		Config: pipeline.Baseline, VerifyEachPass: true, Contain: true,
		Inject: []analysis.Pass{transform.ChaosPass(transform.ChaosMiscompile)},
	}
	div, _, err := check(k.F, k, opts, nil)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	if div == nil {
		t.Fatalf("oracle missed the injected miscompile on seed %d", seed)
	}
	if div.Seed != seed || div.Config != pipeline.Baseline || div.Detail == "" {
		t.Fatalf("divergence record incomplete: %+v", div)
	}
	// Without the injection the same kernel must be clean.
	opts.Inject = nil
	div, _, err = check(k.F, k, opts, nil)
	if err != nil {
		t.Fatalf("clean check: %v", err)
	}
	if div != nil {
		t.Fatalf("kernel diverges without injection: %v", div.String())
	}
}

// TestCampaignSurfacesInjectedMiscompile runs the whole campaign path —
// generation, matrix, reduction, reproducer writing — against an injected
// miscompile and checks a finding comes out the other end.
func TestCampaignSurfacesInjectedMiscompile(t *testing.T) {
	seed := findMiscompileSeed(t)
	dir := t.TempDir()
	res, err := RunCampaign(CampaignOptions{
		Count: 1, Seed: seed, Configs: []pipeline.Config{pipeline.Baseline},
		VerifyEach: true, Reduce: true, ReproDir: dir,
		Inject: []analysis.Pass{transform.ChaosPass(transform.ChaosMiscompile)},
	})
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	if len(res.Findings) != 1 {
		t.Fatalf("want 1 finding, got %d", len(res.Findings))
	}
	f := res.Findings[0]
	if f.ReducedIR == "" || f.ReproPath == "" {
		t.Fatalf("finding was not reduced/persisted: %+v", f.Div)
	}
	if !strings.Contains(f.ReproPath, dir) {
		t.Fatalf("reproducer written outside ReproDir: %s", f.ReproPath)
	}
}

// TestCampaignAggregatesContainedFailures: a panicking pass must not abort
// the campaign — it is contained per run and aggregated in the result.
func TestCampaignAggregatesContainedFailures(t *testing.T) {
	res, err := RunCampaign(CampaignOptions{
		Count: 2, Seed: 1, Configs: []pipeline.Config{pipeline.Baseline},
		VerifyEach: true,
		Inject:     []analysis.Pass{transform.ChaosPass(transform.ChaosPanic)},
	})
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	if len(res.Failures) != res.Checks || res.Checks != 2 {
		t.Fatalf("want one contained failure per check (%d), got %d", res.Checks, len(res.Failures))
	}
	for _, pf := range res.Failures {
		if pf.Kind != harden.FailurePanic || pf.Pass != "chaos-panic" {
			t.Fatalf("unexpected failure record: %+v", pf)
		}
	}
	// The chaos panic fires before it mutates anything harmful; rolled-back
	// compilation must still be correct, so no findings.
	if len(res.Findings) != 0 {
		t.Fatalf("contained panic produced findings: %+v", res.Findings)
	}
}

// TestCampaignNegativeSeedsExerciseLoops runs `uuopt -fuzz 6 -seed -8`'s
// campaign. A per-loop configuration picks its loop from the seed, and a
// negative seed must still pick one the kernel has: a remainder taken with
// the seed's sign asked for loop #-1, a refusal, so the unroll, unmerge and
// u&u legs never ran. Every loop these six kernels have is one all three
// transform, so any refusal here is a loop the kernel lacks.
func TestCampaignNegativeSeedsExerciseLoops(t *testing.T) {
	res, err := RunCampaign(CampaignOptions{Count: 6, Seed: -8})
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	if res.Refusals != 0 || res.Checks != 24 {
		t.Fatalf("%d of %d checks refused: a negative seed named a loop its kernel lacks", res.Refusals, res.Checks)
	}
}

package bench

import (
	"reflect"
	"testing"

	"uu/internal/analysis"
	"uu/internal/harden"
	"uu/internal/transform"
)

// TestRunExperimentsContainsInjectedPanic is the end-to-end containment
// proof: a pass that panics on every invocation must not abort the
// campaign. Every run completes, records its contained failure, and the
// sweep aggregates them.
func TestRunExperimentsContainsInjectedPanic(t *testing.T) {
	res, err := RunExperiments(HarnessOptions{
		Apps:    []string{"contract"},
		Factors: []int{2},
		Workers: 1,
		Contain: true,
		Verify:  true,
		Inject:  []analysis.Pass{transform.ChaosPass(transform.ChaosPanic)},
	})
	if err != nil {
		t.Fatalf("campaign aborted despite containment: %v", err)
	}
	if len(res.Failures) == 0 {
		t.Fatalf("no contained failures were aggregated")
	}
	for _, pf := range res.Failures {
		if pf.Kind != harden.FailurePanic || pf.Pass != "chaos-panic" {
			t.Fatalf("unexpected failure record: %+v", pf)
		}
	}
	base := res.Baseline["contract"]
	if base == nil || base.Metrics == nil {
		t.Fatalf("baseline run did not complete: %+v", base)
	}
	if len(base.Stats.Failures) != 1 {
		t.Fatalf("baseline run should carry exactly its own failure, got %d", len(base.Stats.Failures))
	}
}

// TestRunExperimentsContainmentInvisibleWhenHealthy: with no injected
// fault, the guarded sweep must reproduce the unguarded sweep exactly.
// (The golden corpora hold the same for containment plus verify-each.)
func TestRunExperimentsContainmentInvisibleWhenHealthy(t *testing.T) {
	run := func(contain bool) *Results {
		res, err := RunExperiments(HarnessOptions{
			Apps:    []string{"contract"},
			Factors: []int{2},
			Workers: 1,
			Contain: contain,
		})
		if err != nil {
			t.Fatalf("contain=%v: %v", contain, err)
		}
		return res
	}
	plain, guarded := run(false), run(true)
	if len(guarded.Failures) != 0 {
		t.Fatalf("healthy sweep recorded failures: %v", guarded.Failures)
	}
	a, b := plain.Baseline["contract"], guarded.Baseline["contract"]
	if a.Millis != b.Millis || a.CodeBytes != b.CodeBytes || !reflect.DeepEqual(a.Metrics, b.Metrics) {
		t.Fatalf("containment changed healthy measurements: %v/%v ms, %d/%d B",
			a.Millis, b.Millis, a.CodeBytes, b.CodeBytes)
	}
	for i := range plain.PerLoop {
		pa, pb := plain.PerLoop[i], guarded.PerLoop[i]
		if pa.Millis != pb.Millis || pa.CodeBytes != pb.CodeBytes || pa.Skipped != pb.Skipped {
			t.Fatalf("per-loop record %d differs under containment", i)
		}
	}
}

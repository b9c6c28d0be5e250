package fuzz

import (
	"testing"

	"uu/internal/analysis"
	"uu/internal/harden"
	"uu/internal/ir"
	"uu/internal/pipeline"
	"uu/internal/transform"
)

func TestReduceShrinksMiscompile(t *testing.T) {
	seed := findMiscompileSeed(t)
	k := harden.Generate(seed)
	opts := pipeline.Options{
		Config: pipeline.Baseline, VerifyEachPass: true, Contain: true,
		Inject: []analysis.Pass{transform.ChaosPass(transform.ChaosMiscompile)},
	}
	before := k.F.String()
	red, err := reduce(k.F, k, opts)
	if err != nil {
		t.Fatalf("reduce: %v", err)
	}
	if k.F.String() != before {
		t.Fatalf("Reduce mutated its input")
	}
	if err := ir.Verify(red.F); err != nil {
		t.Fatalf("reduced kernel is not verifier-clean: %v", err)
	}
	if red.F.NumInstrs() > k.F.NumInstrs() {
		t.Fatalf("reduction grew the kernel: %d -> %d instrs", k.F.NumInstrs(), red.F.NumInstrs())
	}
	if red.Removed == 0 {
		t.Fatalf("reduction made no progress on a generator-sized kernel")
	}
	if red.Opts.StopAfter == 0 {
		t.Fatalf("pass bisection found no failing prefix")
	}
	// The minimized reproducer must still fail, under the minimized options.
	div, _, err := check(red.F, k, red.Opts, nil)
	if err != nil {
		t.Fatalf("recheck: %v", err)
	}
	if div == nil {
		t.Fatalf("reduced kernel no longer diverges")
	}
	if red.Div == nil || red.Div.Detail == "" {
		t.Fatalf("reduction lost the divergence record")
	}
}

func TestReduceRejectsHealthyKernel(t *testing.T) {
	k := harden.Generate(7)
	opts := pipeline.Options{Config: pipeline.Baseline, VerifyEachPass: true, Contain: true}
	if _, err := reduce(k.F, k, opts); err == nil {
		t.Fatalf("Reduce accepted a kernel that does not diverge")
	}
}

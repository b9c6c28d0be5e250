package gpusim

import (
	"errors"
	"testing"

	"uu/internal/codegen"
	"uu/internal/interp"
	"uu/internal/irparse"
)

// spinSrc never terminates: the induction variable is multiplied by zero
// every iteration, so the exit condition is never reached. It is
// verifier-clean and lowers like any other kernel, which is exactly the
// shape a miscompiled loop bound takes.
const spinSrc = `func @spin(i64 %n) {
entry:
  br %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %i2, %loop ]
  %i2 = mul i64 %i, i64 0
  %c = icmp slt i64 %i2, i64 1
  condbr i1 %c, %loop, %exit
exit:
  ret
}
`

func spinProgram(t *testing.T) *codegen.Program {
	t.Helper()
	f, err := irparse.ParseFunc(spinSrc)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	p, err := codegen.Lower(f)
	if err != nil {
		t.Fatalf("codegen: %v", err)
	}
	return p
}

func TestCycleBudgetStopsNonTerminatingKernel(t *testing.T) {
	p := spinProgram(t)
	args := []interp.Value{interp.IntVal(4)}
	launch := Launch{GridDim: 2, BlockDim: 64}
	cfg := V100()
	cfg.MaxWarpSteps = 10_000
	mem := interp.NewMemory(64)
	_, err := Run(p, args, mem, launch, cfg)
	if err == nil {
		t.Fatal("non-terminating kernel returned without error")
	}
	if !errors.Is(err, ErrCycleBudget) {
		t.Fatalf("error is not ErrCycleBudget: %v", err)
	}
}

func TestCycleBudgetZeroMeansDefault(t *testing.T) {
	// A terminating kernel with budget 0 must run to completion under the
	// package default rather than trip at zero steps.
	const oneShot = `func @one(i64 %n) {
entry:
  ret
}
`
	f, err := irparse.ParseFunc(oneShot)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	p, err := codegen.Lower(f)
	if err != nil {
		t.Fatalf("codegen: %v", err)
	}
	cfg := V100()
	if cfg.MaxWarpSteps != 0 {
		t.Fatalf("V100 should leave the budget at the default, got %d", cfg.MaxWarpSteps)
	}
	mem := interp.NewMemory(64)
	if _, err := Run(p, []interp.Value{interp.IntVal(1)}, mem, Launch{GridDim: 1, BlockDim: 32}, cfg); err != nil {
		t.Fatalf("run: %v", err)
	}
}

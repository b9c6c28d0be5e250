// Package fuzz closes the gap the verifier cannot: a pass that produces
// well-formed but wrong IR. It runs generated kernels (internal/harden's
// Generate) through a differential matrix — the sequential interpreter on
// the unoptimized IR as the reference, then the interpreter on the
// optimized IR and the SIMT simulator at one and several workers — and
// reports any output disagreement as a miscompile. Findings shrink through
// an llvm-reduce-style reducer (reduce.go) into small reproducers.
package fuzz

import (
	"errors"
	"fmt"
	"math"

	"uu/internal/codegen"
	"uu/internal/gpusim"
	"uu/internal/harden"
	"uu/internal/interp"
	"uu/internal/ir"
	"uu/internal/pipeline"
)

// Execution budgets. Generated kernels run a few hundred instructions per
// thread; a miscompile that turns a bounded loop into an unbounded one
// should fail fast, not hang the campaign.
const (
	interpStepBudget = int64(1) << 20 // per thread
	simStepBudget    = int64(1) << 22 // per warp (32 threads in lockstep)
)

// Divergence describes one differential failure: a leg of the execution
// matrix that disagreed with the unoptimized-interpreter reference, or
// errored where the reference did not.
type Divergence struct {
	Seed   int64
	Config pipeline.Config
	// Stage identifies the leg: "optimize", "codegen", "interp-opt", or one
	// simulator leg per divergence policy — "gpusim-ipdom", "gpusim-minsppc",
	// "gpusim-vortex". Every backend must agree with the interpreter
	// reference, so a policy-specific reconvergence bug shows up as a
	// differential finding exactly like a miscompile.
	Stage string
	// Detail is the first mismatching element or the leg's error text.
	Detail string
	// Err is the leg's error value when the leg errored instead of
	// producing mismatching outputs; nil for genuine output divergences.
	// Keeping the value (not just its text) lets callers classify with
	// errors.Is — see Infra.
	Err error
}

// Infra reports whether the divergence is an infrastructure failure — a leg
// exhausting an execution budget or hitting a VPTX decode error — rather
// than a genuine differential mismatch. Budget exhaustion usually means the
// generated kernel is too slow for the campaign's budgets (or the budgets
// are mistuned); a decode error means codegen and the simulator disagree
// about the VPTX dialect. Both demand attention, but neither is evidence of
// a miscompile, so campaign drivers report them under a distinct exit code.
func (d *Divergence) Infra() bool {
	if d.Err == nil {
		return false
	}
	return errors.Is(d.Err, gpusim.ErrCycleBudget) ||
		errors.Is(d.Err, gpusim.ErrDecode) ||
		errors.Is(d.Err, interp.ErrStepBudget)
}

func (d *Divergence) String() string {
	return fmt.Sprintf("seed %d config %s: %s: %s", d.Seed, d.Config, d.Stage, d.Detail)
}

// newMemory builds the kernel's initial memory image: deterministic input
// buffers, zeroed outputs.
func newMemory(k *harden.Kernel) *interp.Memory {
	mem := interp.NewMemory(k.MemSize)
	for i, v := range k.F64Init {
		mem.SetF64(k.In0Base, int64(i), v)
	}
	for i, v := range k.I64Init {
		mem.SetI64(k.In1Base, int64(i), v)
	}
	return mem
}

func kernelArgs(k *harden.Kernel) []interp.Value {
	args := make([]interp.Value, len(k.Args))
	for i, a := range k.Args {
		args[i] = interp.IntVal(a)
	}
	return args
}

// runInterp executes f once per thread of the kernel's launch under the
// sequential interpreter and returns the final memory.
func runInterp(f *ir.Function, k *harden.Kernel) (*interp.Memory, error) {
	mem := newMemory(k)
	args := kernelArgs(k)
	total := k.Threads()
	for tid := 0; tid < total; tid++ {
		env := interp.Env{
			TID:    int32(tid % k.BlockDim),
			NTID:   int32(k.BlockDim),
			CTAID:  int32(tid / k.BlockDim),
			NCTAID: int32(k.GridDim),
		}
		if _, err := interp.RunSteps(f, args, mem, env, interpStepBudget, nil); err != nil {
			return nil, fmt.Errorf("thread %d: %w", tid, err)
		}
	}
	return mem, nil
}

// runSim executes the lowered program under the SIMT simulator with the
// given device configuration and a small step budget.
func runSim(prog *codegen.Program, k *harden.Kernel, cfg gpusim.DeviceConfig) (*interp.Memory, error) {
	mem := newMemory(k)
	cfg.MaxWarpSteps = simStepBudget
	launch := gpusim.Launch{GridDim: k.GridDim, BlockDim: k.BlockDim}
	if _, err := gpusim.Run(prog, kernelArgs(k), mem, launch, cfg); err != nil {
		return nil, err
	}
	return mem, nil
}

// defaultSimLegs is the simulator side of the differential matrix: one
// device, and so one leg, per divergence policy. Vortex runs with its native
// 16-wide warps, so this also exercises the narrow-warp masking paths.
func defaultSimLegs() []gpusim.DeviceConfig {
	return []gpusim.DeviceConfig{gpusim.V100(), gpusim.MinSPPC(), gpusim.Vortex()}
}

// diffOutputs compares the kernel's two output regions and returns a
// description of the first mismatch, or "" if they agree. Floats compare
// with the same relative tolerance the benchmark harness uses (identities
// like x+0 => x may flip signed zeros); integers compare exactly.
func diffOutputs(k *harden.Kernel, want, got *interp.Memory) string {
	const relTol = 1e-9
	feq := func(a, b float64) bool {
		if a == b || (math.IsNaN(a) && math.IsNaN(b)) {
			return true
		}
		d := math.Abs(a - b)
		return d <= relTol*math.Max(math.Abs(a), math.Abs(b))
	}
	for i := int64(0); i < int64(k.Threads()); i++ {
		if a, b := want.F64(k.FOutBase, i), got.F64(k.FOutBase, i); !feq(a, b) {
			return fmt.Sprintf("fout[%d]: want %v, got %v", i, a, b)
		}
		if a, b := want.I64(k.IOutBase, i), got.I64(k.IOutBase, i); a != b {
			return fmt.Sprintf("iout[%d]: want %d, got %d", i, a, b)
		}
	}
	return ""
}

// check runs f through one pipeline configuration and the differential
// matrix. f is not mutated: the pipeline runs on a clone. A nil Divergence
// means every leg agreed with the unoptimized-interpreter reference. The
// returned error reports infrastructure problems only (the reference itself
// failing), never findings. It also returns the pipeline stats of the
// optimized build, so the reducer can bisect the pass list and the campaign
// can aggregate contained pass failures. A nil legs selects the full default
// cross-policy matrix; the campaign passes a pinned leg set when the user
// restricts it to one device.
func check(f *ir.Function, k *harden.Kernel, opts pipeline.Options, legs []gpusim.DeviceConfig) (*Divergence, *pipeline.Stats, error) {
	if legs == nil {
		legs = defaultSimLegs()
	}
	div := func(stage, detail string) *Divergence {
		return &Divergence{Seed: k.Seed, Config: opts.Config, Stage: stage, Detail: detail}
	}
	divErr := func(stage string, err error) *Divergence {
		return &Divergence{Seed: k.Seed, Config: opts.Config, Stage: stage, Detail: err.Error(), Err: err}
	}
	ref, err := runInterp(f, k)
	if err != nil {
		return nil, nil, fmt.Errorf("fuzz: reference execution of %s failed: %w", f.Name, err)
	}
	opt := ir.Clone(f)
	stats, err := pipeline.Optimize(opt, opts)
	if err != nil {
		return divErr("optimize", err), stats, nil
	}
	optMem, err := runInterp(opt, k)
	if err != nil {
		return divErr("interp-opt", err), stats, nil
	}
	if d := diffOutputs(k, ref, optMem); d != "" {
		return div("interp-opt", d), stats, nil
	}
	prog, err := codegen.Lower(opt)
	if err != nil {
		return divErr("codegen", err), stats, nil
	}
	for _, dev := range legs {
		stage := "gpusim-" + dev.Policy.String()
		simMem, err := runSim(prog, k, dev)
		if err != nil {
			return divErr(stage, err), stats, nil
		}
		if d := diffOutputs(k, ref, simMem); d != "" {
			return div(stage, d), stats, nil
		}
	}
	return nil, stats, nil
}

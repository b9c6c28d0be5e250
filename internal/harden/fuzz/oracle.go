// Package fuzz closes the gap the verifier cannot: a pass that produces
// well-formed but wrong IR. It runs generated kernels (internal/harden's
// Generate) through a differential matrix — the sequential interpreter on
// the unoptimized IR as the reference, then the interpreter on the
// optimized IR and one SIMT simulator leg per divergence policy
// (gpusim-ipdom, gpusim-minsppc, gpusim-vortex) — and reports any output
// disagreement as a miscompile. Findings shrink through
// an llvm-reduce-style reducer (reduce.go) into small reproducers.
package fuzz

import (
	"errors"
	"fmt"

	"uu/internal/bench"
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
	// Detail is the first mismatching element (bench.CompareOutputs) or the
	// leg's error text.
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

// workload describes the generated kernel's launch as a bench.Workload:
// deterministic input buffers, zeroed outputs, and one f64 and one i64
// output per thread.
func workload(k *harden.Kernel) *bench.Workload {
	args := make([]interp.Value, len(k.Args))
	for i, a := range k.Args {
		args[i] = interp.IntVal(a)
	}
	threads := int64(k.Threads())
	return &bench.Workload{
		Args:    args,
		MemSize: k.MemSize,
		Init: func(m *interp.Memory) {
			for i, v := range k.F64Init {
				m.SetF64(k.In0Base, int64(i), v)
			}
			for i, v := range k.I64Init {
				m.SetI64(k.In1Base, int64(i), v)
			}
		},
		Launch: gpusim.Launch{GridDim: k.GridDim, BlockDim: k.BlockDim},
		Outputs: []bench.Region{
			{Name: "fout", Base: k.FOutBase, Count: threads, Elem: "f64"},
			{Name: "iout", Base: k.IOutBase, Count: threads, Elem: "i64"},
		},
	}
}

// runSim executes the lowered program under the SIMT simulator with the
// given device configuration and a small step budget.
func runSim(prog *codegen.Program, w *bench.Workload, cfg gpusim.DeviceConfig) (*interp.Memory, error) {
	mem := w.NewMemory()
	cfg.MaxWarpSteps = simStepBudget
	if _, err := gpusim.Run(prog, w.Args, mem, w.Launch, cfg); err != nil {
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
	w := workload(k)
	ref, err := bench.Interpret(f, w, interpStepBudget, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("fuzz: reference execution of %s failed: %w", f.Name, err)
	}
	opt := ir.Clone(f)
	stats, err := pipeline.Optimize(opt, opts)
	if err != nil {
		return divErr("optimize", err), stats, nil
	}
	optMem, err := bench.Interpret(opt, w, interpStepBudget, nil)
	if err != nil {
		return divErr("interp-opt", err), stats, nil
	}
	if err := bench.CompareOutputs(w, ref, optMem); err != nil {
		return div("interp-opt", err.Error()), stats, nil
	}
	prog, err := codegen.Lower(opt)
	if err != nil {
		return divErr("codegen", err), stats, nil
	}
	for _, dev := range legs {
		stage := "gpusim-" + dev.Policy.String()
		simMem, err := runSim(prog, w, dev)
		if err != nil {
			return divErr(stage, err), stats, nil
		}
		if err := bench.CompareOutputs(w, ref, simMem); err != nil {
			return div(stage, err.Error()), stats, nil
		}
	}
	return nil, stats, nil
}

// Package bench defines the 16 GPU benchmarks mirroring the paper's
// HeCBench selection (Table I), their workload generators and verification
// oracles, and the experiment harness that regenerates Table I and Figures
// 6a/6b/6c, 7, 8a and 8b.
package bench

import (
	"context"
	"fmt"
	"math"
	"sync"

	"uu/internal/codegen"
	"uu/internal/gpusim"
	"uu/internal/interp"
	"uu/internal/ir"
	"uu/internal/lang"
	"uu/internal/pipeline"
)

// Region describes an output range used for verification.
type Region struct {
	Name  string
	Base  int64  // byte offset
	Count int64  // number of elements
	Elem  string // "f64", "f32", "i64", "i32"
}

// InputMode selects how a benchmark's input buffers are initialized: the
// default warp-coherent generators (spatially tiled particles, sorted
// features, smooth histories — the structure real inputs have, which keeps
// branch outcomes correlated across a warp), or white noise over the same
// domain-safe value ranges, which shatters that correlation. The sweep
// across both is a first-class campaign dimension: it bounds how much of
// each measured u&u win depends on input coherence (known deviation #4 in
// EXPERIMENTS.md).
type InputMode string

const (
	InputCoherent InputMode = "coherent"
	InputNoise    InputMode = "noise"
)

// InputModes returns both modes in canonical (report) order.
func InputModes() []InputMode { return []InputMode{InputCoherent, InputNoise} }

// ParseInputMode validates a CLI input-mode name.
func ParseInputMode(s string) (InputMode, error) {
	switch InputMode(s) {
	case InputCoherent, InputNoise:
		return InputMode(s), nil
	}
	return "", fmt.Errorf("bench: unknown input mode %q (want coherent or noise)", s)
}

// Workload is one concrete input configuration for a benchmark.
type Workload struct {
	Args    []interp.Value
	MemSize int64
	Init    func(m *interp.Memory)
	Launch  gpusim.Launch
	Outputs []Region
	// Noise, when non-nil, is the white-noise counterpart of Init: it fills
	// the same input regions with i.i.d. values over the same domain-safe
	// ranges, destroying warp coherence. Nil means the kernel's inputs are
	// derived from the thread id (complex, mandelbrot), so there is nothing
	// to decohere and both input modes run identically.
	Noise func(m *interp.Memory)

	// image is the initial memory image of the selected input mode, built
	// by Init on first use and copied from afterwards: the generators are
	// deterministic, so every memory of the workload starts from these
	// bytes. Workloads are shared across harness workers, hence the lock.
	imageMu sync.Mutex
	image   []byte
}

// SetInput selects the workload's input mode. Selecting InputNoise on a
// workload without a Noise generator is a no-op (see Noise).
func (w *Workload) SetInput(mode InputMode) {
	if mode == InputNoise && w.Noise != nil {
		w.imageMu.Lock()
		w.Init = w.Noise
		w.image = nil
		w.imageMu.Unlock()
	}
}

// initialImage returns the workload's initial memory image, generating it
// on first use. Callers only read it. A workload without Init starts from
// zeros and keeps no image: nil, which every memory constructor pads with
// zeros to MemSize.
func (w *Workload) initialImage() []byte {
	w.imageMu.Lock()
	defer w.imageMu.Unlock()
	if w.image == nil && w.Init != nil {
		m := interp.NewMemory(w.MemSize)
		w.Init(m)
		w.image = m.Data
	}
	return w.image
}

// NewMemory builds a fresh initialized memory for the workload. The caller
// owns it.
func (w *Workload) NewMemory() *interp.Memory {
	m := interp.NewMemory(w.MemSize)
	copy(m.Data, w.initialImage())
	return m
}

// AcquireMemory is NewMemory on a recycled buffer (interp.AcquireMemory),
// for callers that can say when the memory is dead: hand it back with
// interp.ReleaseMemory once nothing references it.
func (w *Workload) AcquireMemory() *interp.Memory {
	return interp.AcquireMemory(w.MemSize, w.initialImage())
}

// Benchmark is one application of the suite.
type Benchmark struct {
	Name        string
	Category    string
	CommandLine string  // the paper's Table I command line (documentary)
	KernelPct   float64 // paper's %C: fraction of app time in compute kernels
	Source      string  // MiniCU kernel source
	NewWorkload func() *Workload

	// AppCodeBytes and AppCompileMs model the rest of the application: the
	// paper compares whole-binary sizes and whole-clang-invocation times, so
	// the relative increase depends on how much of the application the
	// transformed loop is. "If an application is large such as XSBench and
	// quicksort, the relative code size increase will not be large... the
	// optimized loops of ccs, complex, haccmk, and rainflow dominate the
	// code size" (RQ2). Figures 6b/6c add these constants to both sides of
	// each ratio.
	AppCodeBytes int64
	AppCompileMs float64

	// frontend is Source through the frontend, built on first use and only
	// read afterwards: Source is a constant of the suite's literals, so its
	// IR is a constant of the process. The function never leaves this
	// package and is never handed to a pass — callers get ir.Clone copies
	// (CompileKernel), which is what lets every harness worker and every
	// uud request share it without a lock.
	frontendOnce sync.Once
	frontend     *ir.Function
	frontendErr  error
}

// Kernel returns the benchmark's kernel as the frontend built it: a private
// copy (ir.Clone) of a function compiled once per process, the caller's to
// mutate. It panics on malformed source — fine for the suite's constant
// sources; error-checking paths use CompileKernel.
func (b *Benchmark) Kernel() *ir.Function {
	f, err := b.CompileKernel()
	if err != nil {
		panic(err)
	}
	return f
}

// CompileKernel is Kernel with the frontend error returned instead of
// panicking, so harness and CLI paths can surface bad input as a normal
// failed run. The error, like the function, is produced once.
func (b *Benchmark) CompileKernel() (*ir.Function, error) {
	b.frontendOnce.Do(func() {
		if b.frontend, b.frontendErr = lang.CompileKernel(b.Source); b.frontendErr != nil {
			b.frontendErr = fmt.Errorf("bench %s: %w", b.Name, b.frontendErr)
		}
	})
	if b.frontendErr != nil {
		return nil, b.frontendErr
	}
	return ir.Clone(b.frontend), nil
}

// Reference executes the unoptimized kernel with the sequential interpreter
// over every thread of the launch grid, producing the oracle memory image.
func Reference(b *Benchmark, w *Workload) (*interp.Memory, error) {
	return reference(b, w, nil)
}

// reference is Reference, tallying into ctr when it is non-nil.
func reference(b *Benchmark, w *Workload, ctr *interp.Counters) (*interp.Memory, error) {
	f, err := b.CompileKernel()
	if err != nil {
		return nil, err
	}
	mem, err := Interpret(f, w, interp.DefaultMaxSteps, ctr)
	ir.Release(f)
	if err != nil {
		return nil, fmt.Errorf("bench %s: reference %w", b.Name, err)
	}
	return mem, nil
}

// Interpret runs f with the sequential interpreter once per thread of the
// workload's launch (interp.RunLaunch, which decodes f once for all of
// them), each thread within maxSteps, on a fresh memory of the workload,
// and returns that memory. A non-nil ctr tallies the executed operations.
func Interpret(f *ir.Function, w *Workload, maxSteps int64, ctr *interp.Counters) (*interp.Memory, error) {
	mem := w.NewMemory()
	if err := interp.RunLaunch(f, w.Args, mem, w.Launch.GridDim, w.Launch.BlockDim, maxSteps, ctr); err != nil {
		return nil, err
	}
	return mem, nil
}

// CompareOutputs checks the workload's output regions of got against want.
// Floating-point elements compare with a small relative tolerance (the
// pipeline's identities like x+0 => x may flip signed zeros).
func CompareOutputs(w *Workload, want, got *interp.Memory) error {
	const relTol = 1e-9
	feq := func(a, b float64) bool {
		if a == b || (math.IsNaN(a) && math.IsNaN(b)) {
			return true
		}
		d := math.Abs(a - b)
		return d <= relTol*math.Max(math.Abs(a), math.Abs(b))
	}
	for _, r := range w.Outputs {
		for i := int64(0); i < r.Count; i++ {
			switch r.Elem {
			case "f64":
				a, b := want.F64(r.Base, i), got.F64(r.Base, i)
				if !feq(a, b) {
					return fmt.Errorf("output %s[%d]: want %v, got %v", r.Name, i, a, b)
				}
			case "f32":
				a, b := float64(want.F32(r.Base, i)), float64(got.F32(r.Base, i))
				if !feq(a, b) {
					return fmt.Errorf("output %s[%d]: want %v, got %v", r.Name, i, a, b)
				}
			case "i64":
				if a, b := want.I64(r.Base, i), got.I64(r.Base, i); a != b {
					return fmt.Errorf("output %s[%d]: want %d, got %d", r.Name, i, a, b)
				}
			case "i32":
				if a, b := want.I32(r.Base, i), got.I32(r.Base, i); a != b {
					return fmt.Errorf("output %s[%d]: want %d, got %d", r.Name, i, a, b)
				}
			default:
				return fmt.Errorf("bad region elem %q", r.Elem)
			}
		}
	}
	return nil
}

// CompileResult bundles everything the harness measures at compile time.
type CompileResult struct {
	Program *codegen.Program
	Stats   *pipeline.Stats
	Func    *ir.Function
}

// Compile lowers the benchmark's kernel through the given pipeline
// configuration down to VPTX. A pipeline or codegen error comes with a
// CompileResult that has no Program but still carries the Stats of what ran.
// Run is the same compile followed by the simulation, clocked.
func Compile(b *Benchmark, opts pipeline.Options) (*CompileResult, error) {
	f, st, prog, err := compile(context.Background(), b.Name, b.CompileKernel, opts)
	if f == nil {
		return nil, err
	}
	return &CompileResult{Program: prog, Stats: st, Func: f}, err
}

// compile takes a fresh copy of a kernel from its frontend and lowers it
// through the pipeline under ctx (cancellation stops it at the next pass
// boundary) and codegen. It returns what it got as far as it got: f is nil
// when the frontend failed, prog when the pipeline or codegen did. Pipeline
// and codegen errors are labelled with name and the configuration.
func compile(ctx context.Context, name string, kernel func() (*ir.Function, error), opts pipeline.Options) (f *ir.Function, st *pipeline.Stats, prog *codegen.Program, err error) {
	if f, err = kernel(); err != nil {
		return nil, nil, nil, err
	}
	if st, err = pipeline.OptimizeCtx(ctx, f, opts); err == nil {
		prog, err = codegen.Lower(f)
	}
	if err != nil {
		return f, st, nil, fmt.Errorf("bench %s (%s): %w", name, opts.Config, err)
	}
	return f, st, prog, nil
}

// Execute runs a compiled kernel on the simulator. When verifyAgainst is
// non-nil the resulting memory is checked against it.
func Execute(cr *CompileResult, w *Workload, cfg gpusim.DeviceConfig, verifyAgainst *interp.Memory) (*gpusim.Metrics, error) {
	return execute(context.Background(), cr.Program, w, cfg, verifyAgainst, nil)
}

// execute simulates prog over w (gpusim.RunCtx): cancellation of ctx stops
// the simulation at the next warp-block boundary, a non-nil prof, sized for
// prog (gpusim.NewProfile), accumulates per-PC hotspot counters, and a
// non-nil want is the oracle the outputs are checked against.
func execute(ctx context.Context, prog *codegen.Program, w *Workload, cfg gpusim.DeviceConfig, want *interp.Memory, prof *gpusim.Profile) (*gpusim.Metrics, error) {
	// The image never leaves this function, so its buffer is a recycled one.
	mem := w.AcquireMemory()
	defer interp.ReleaseMemory(mem)
	launch := w.Launch
	if want != nil {
		launch.SampleWarps = 0 // full run required for verification
	}
	m, err := gpusim.RunCtx(ctx, prog, w.Args, mem, launch, cfg, prof)
	if err != nil {
		return nil, err
	}
	if want != nil {
		if err := CompareOutputs(w, want, mem); err != nil {
			return nil, fmt.Errorf("verification failed: %w", err)
		}
	}
	return m, nil
}

// LoopCount reports the benchmark's loop count on the canonicalized kernel —
// the `L` column of Table I.
func LoopCount(b *Benchmark) int {
	f := b.Kernel()
	n := len(pipeline.Canonicalize(f).Loops)
	ir.Release(f)
	return n
}

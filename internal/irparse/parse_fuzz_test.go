package irparse_test

import (
	"context"
	"errors"
	"hash/fnv"
	"strings"
	"testing"

	"uu/internal/bench"
	"uu/internal/gpusim"
	"uu/internal/interp"
	"uu/internal/ir"
	"uu/internal/irparse"
	"uu/internal/lang"
	"uu/internal/pipeline"
)

// ptrCmpSrc compares two pointers unsigned: each thread asks whether its
// element of a lies below b and stores the answer to out. It passes
// ir.Verify, so uud's ir requests accept it.
const ptrCmpSrc = `func @ptrcmp(i64* noalias %a, i64* noalias %b, i64* noalias %out) {
entry:
  %t = tid
  %i = sext i32 %t to i64
  %pa = gep i64* %a, i64 %i
  %c = icmp ult i64* %pa, i64* %b
  %v = zext i1 %c to i64
  %po = gep i64* %out, i64 %i
  store i64 %v, i64* %po
  ret
}
`

// noRegsSrc writes no register: it lowers to a lone ret, which the
// simulator's scoreboard once took for a write of %r0 in a program of zero
// registers.
const noRegsSrc = "func @a() {\nentry:\n  ret\n}\n"

// wrapSrc loads through an address so large that address+size wraps past
// the largest int64: 8 x 1152921504606846975 = 2^63-8. A bounds check
// written as addr+size > len reads that as in bounds, and the load then
// panicked, in the interpreter and in the simulator's 8-byte paths alike.
const wrapSrc = `func @wrap(i64* noalias %a) {
entry:
  %p = gep i64* %a, i64 1152921504606846975
  %v = load i64* %p
  store i64 %v, i64* %a
  ret
}
`

// The interpreter evaluates these inline, at their types, rather than
// through package ir's kernels: i32 adds and muls that wrap, and compares
// of i32s whose int64 holds high bits (wrapSmallSrc); f32 arithmetic and
// compares of parameters (f32Src: FuzzRunIR passes every argument as an
// interp.IntVal, as uud does, so an f32 parameter reads zero and an
// unrounded one is TestPureOpsMatchReference's input, not this one's); and
// a loop of 3-step iterations behind a 1-step entry, which a 2^16-step
// budget ends exactly at the end of an iteration (budgetEdgeSrc), so the
// budget error falls on a block's first op.
const wrapSmallSrc = `func @wrapsmall(i32* noalias %out) {
entry:
  %t = tid
  %a = add i32 %t, i32 2147483647
  %m = mul i32 %a, i32 65537
  %s = sub i32 %m, i32 -2147483648
  %c = icmp slt i32 %s, i32 %a
  %z = zext i1 %c to i32
  %i = sext i32 %t to i64
  %p = gep i32* %out, i64 %i
  store i32 %z, i32* %p
  ret
}
`

const f32Src = `func @f32ops(f32 %x, f32 %y, f32* noalias %out) {
entry:
  %t = tid
  %ft = sitofp i32 %t to f32
  %a = fadd f32 %x, f32 0.1
  %b = fmul f32 %a, f32 %ft
  %d = fsub f32 %b, f32 %y
  %c = fcmp olt f32 %d, f32 %x
  %v = select i1 %c, f32 %d, f32 %a
  %i = sext i32 %t to i64
  %p = gep f32* %out, i64 %i
  store f32 %v, f32* %p
  ret
}
`

const budgetEdgeSrc = `func @budgetedge(i64* noalias %out) {
entry:
  br %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %next, %loop ]
  %next = add i64 %i, i64 1
  %c = icmp sge i64 %next, i64 100000
  condbr i1 %c, %exit, %loop
exit:
  store i64 %next, i64* %out
  ret
}
`

// addSeeds seeds a fuzz target with every suite kernel as its frontend
// builds it and after canonicalization.
func addSeeds(f *testing.F) {
	for _, b := range bench.Suite {
		fn, err := b.CompileKernel()
		if err != nil {
			f.Fatalf("%s: %v", b.Name, err)
		}
		f.Add(fn.String())
		pipeline.Canonicalize(fn)
		f.Add(fn.String())
	}
}

// FuzzParseFunc holds the textual IR parser, the frontend uud takes IR
// requests through, to its contract on any text: it never panics, and a
// function it parses that passes ir.Verify prints to text that parses back
// and prints to the same text again.
func FuzzParseFunc(f *testing.F) {
	addSeeds(f)
	f.Fuzz(func(t *testing.T, src string) {
		fn, err := irparse.ParseFunc(src)
		if err != nil || ir.Verify(fn) != nil {
			return
		}
		text := fn.String()
		again, err := irparse.ParseFunc(text)
		if err != nil {
			t.Fatalf("printed IR does not parse back: %v\nprinted:\n%s", err, text)
		}
		if got := again.String(); got != text {
			t.Fatalf("print -> parse -> print is not a fixed point:\nfirst:\n%s\nsecond:\n%s", text, got)
		}
	})
}

// FuzzRunIR drives any text that parses and verifies down the path a uud ir
// request takes: the interpreter (bench.Interpret) and a baseline compile
// and simulation (bench.Run) on every registry device, with a 1x32 launch,
// 4 KiB of memory and step budgets of 2^16. A uud request may pass any
// int64 to any parameter, so each scalar argument is an interp.IntVal
// hashed (FNV-64a) from the text and the parameter's index, and a loop
// bounded by a parameter iterates; pointer arguments are 0, the start of
// memory. Either leg may return an error; neither may panic.
func FuzzRunIR(f *testing.F) {
	addSeeds(f)
	f.Add(ptrCmpSrc)
	f.Add(noRegsSrc)
	f.Add(wrapSrc)
	f.Add(wrapSmallSrc)
	f.Add(f32Src)
	f.Add(budgetEdgeSrc)
	empty, err := lang.CompileKernel("kernel k() { }")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(empty.String())
	f.Fuzz(func(t *testing.T, src string) {
		fn, err := irparse.ParseFunc(src)
		if err != nil || ir.Verify(fn) != nil {
			return
		}
		args := make([]interp.Value, len(fn.Params))
		h := fnv.New64a()
		h.Write([]byte(src))
		for i, p := range fn.Params {
			h.Write([]byte{byte(i)})
			if !p.Typ.IsPtr() {
				args[i] = interp.IntVal(int64(h.Sum64()))
			}
		}
		w := &bench.Workload{
			Args:    args,
			MemSize: 4 << 10,
			Launch:  gpusim.Launch{GridDim: 1, BlockDim: 32},
		}
		_, _ = bench.Interpret(fn, w, 1<<16, nil)
		for _, d := range gpusim.Devices() {
			cfg := d.Config
			cfg.MaxWarpSteps = 1 << 16
			_, _ = bench.Run(context.Background(), bench.Job{
				Name:     fn.Name,
				Kernel:   func() (*ir.Function, error) { return ir.Clone(fn), nil },
				Workload: w,
				Options:  pipeline.Options{Config: pipeline.Baseline},
				Device:   cfg,
			})
		}
	})
}

// TestInlineSeedsRun keeps FuzzRunIR's seeds for the interpreter's inline
// cases in the target, which skips text that does not verify, and pins
// budgetEdgeSrc's claim: its thread runs out of a 2^16-step budget after
// exactly 2^16 counted steps, the end of an iteration, with counters and
// without.
func TestInlineSeedsRun(t *testing.T) {
	for _, src := range []string{wrapSmallSrc, f32Src, budgetEdgeSrc} {
		fn, err := irparse.ParseFunc(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := ir.Verify(fn); err != nil {
			t.Fatal(err)
		}
	}
	fn, err := irparse.ParseFunc(budgetEdgeSrc)
	if err != nil {
		t.Fatal(err)
	}
	w := &bench.Workload{Args: []interp.Value{interp.IntVal(0)}, MemSize: 8, Launch: gpusim.Launch{GridDim: 1, BlockDim: 1}}
	ctr := &interp.Counters{Ops: map[ir.Op]int64{}}
	if _, err := bench.Interpret(fn, w, 1<<16, ctr); !errors.Is(err, interp.ErrStepBudget) || ctr.Steps != 1<<16 {
		t.Errorf("counted: %v after %d steps, want a step budget error after %d", err, ctr.Steps, 1<<16)
	}
	if _, err := bench.Interpret(fn, w, 1<<16, nil); !errors.Is(err, interp.ErrStepBudget) {
		t.Errorf("without counters: %v, want a step budget error", err)
	}
}

// TestPointerCompareAgrees holds the interpreter and the simulator to one
// reading of a pointer compare — a pointer is its 64-bit address — under
// every divergence policy: each device's run must leave the memory the
// interpreter leaves.
func TestPointerCompareAgrees(t *testing.T) {
	fn, err := irparse.ParseFunc(ptrCmpSrc)
	if err != nil {
		t.Fatal(err)
	}
	if err := ir.Verify(fn); err != nil {
		t.Fatal(err)
	}
	const lanes, below = 32, 12
	const outBase = 8 * lanes
	w := &bench.Workload{
		Args:    []interp.Value{interp.IntVal(0), interp.IntVal(8 * below), interp.IntVal(outBase)},
		MemSize: outBase + 8*lanes,
		Launch:  gpusim.Launch{GridDim: 1, BlockDim: lanes},
		Outputs: []bench.Region{{Name: "out", Base: outBase, Count: lanes, Elem: "i64"}},
	}
	want, err := bench.Interpret(fn, w, 1<<16, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < lanes; i++ {
		if got := want.I64(outBase, i); (got == 1) != (i < below) {
			t.Fatalf("interpreter: out[%d] = %d, want %v", i, got, i < below)
		}
	}
	for _, d := range gpusim.Devices() {
		_, err := bench.Run(context.Background(), bench.Job{
			Name:     fn.Name,
			Kernel:   func() (*ir.Function, error) { return ir.Clone(fn), nil },
			Workload: w,
			Options:  pipeline.Options{Config: pipeline.Baseline},
			Device:   d.Config,
			Want:     want,
		})
		if err != nil {
			t.Errorf("%s: %v", d.Name, err)
		}
	}
}

// TestWrappedAddressFaults: a load whose address+size wraps is out of
// bounds like any other, in the interpreter and under every divergence
// policy, and says so in the same words.
func TestWrappedAddressFaults(t *testing.T) {
	fn, err := irparse.ParseFunc(wrapSrc)
	if err != nil {
		t.Fatal(err)
	}
	if err := ir.Verify(fn); err != nil {
		t.Fatal(err)
	}
	w := &bench.Workload{
		Args:    []interp.Value{interp.IntVal(0)},
		MemSize: 4 << 10,
		Launch:  gpusim.Launch{GridDim: 1, BlockDim: 32},
	}
	const want = "interp: load out of bounds: addr=9223372036854775800 size=8 mem=4096"
	if _, err := bench.Interpret(fn, w, 1<<16, nil); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("interpreter: %v, want %q", err, want)
	}
	for _, d := range gpusim.Devices() {
		_, err := bench.Run(context.Background(), bench.Job{
			Name:     fn.Name,
			Kernel:   func() (*ir.Function, error) { return ir.Clone(fn), nil },
			Workload: w,
			Options:  pipeline.Options{Config: pipeline.Baseline},
			Device:   d.Config,
		})
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: %v, want %q", d.Name, err, want)
		}
	}
}

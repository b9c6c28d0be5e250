package irparse_test

import (
	"context"
	"testing"

	"uu/internal/bench"
	"uu/internal/gpusim"
	"uu/internal/interp"
	"uu/internal/ir"
	"uu/internal/irparse"
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
// zero arguments, 4 KiB of memory and step budgets of 2^16. Either may
// return an error; neither may panic.
func FuzzRunIR(f *testing.F) {
	addSeeds(f)
	f.Add(ptrCmpSrc)
	f.Fuzz(func(t *testing.T, src string) {
		fn, err := irparse.ParseFunc(src)
		if err != nil || ir.Verify(fn) != nil {
			return
		}
		w := &bench.Workload{
			Args:    make([]interp.Value, len(fn.Params)),
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

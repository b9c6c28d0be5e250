package interp_test

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"uu/internal/bench"
	"uu/internal/interp"
	"uu/internal/ir"
	"uu/internal/pipeline"
)

// refLaunch is RunLaunch as the map-based reference runs it: one fresh
// interpreter per thread, in thread order.
func refLaunch(f *ir.Function, args []interp.Value, mem *interp.Memory, gridDim, blockDim int, maxSteps int64, ctr *interp.Counters) error {
	for tid := 0; tid < gridDim*blockDim; tid++ {
		env := interp.Env{TID: int32(tid % blockDim), NTID: int32(blockDim), CTAID: int32(tid / blockDim), NCTAID: int32(gridDim)}
		if _, err := refRunSteps(f, args, mem, env, maxSteps, ctr); err != nil {
			return fmt.Errorf("thread %d: %w", tid, err)
		}
	}
	return nil
}

// diffLaunch runs a launch of f under RunLaunch and under refLaunch, each
// on its own copy of mem, and requires the same error text, memory image
// and counters; then under RunLaunch without counters, the oracle's way,
// on a third copy, which must end as the reference did. It returns the
// steps executed.
func diffLaunch(t *testing.T, name string, f *ir.Function, args []interp.Value, mem *interp.Memory, gridDim, blockDim int) int64 {
	t.Helper()
	got, want, plain := cloneMem(mem), cloneMem(mem), cloneMem(mem)
	gc := &interp.Counters{Ops: map[ir.Op]int64{}}
	wc := &interp.Counters{Ops: map[ir.Op]int64{}}
	gerr := interp.RunLaunch(f, args, got, gridDim, blockDim, interp.DefaultMaxSteps, gc)
	werr := refLaunch(f, args, want, gridDim, blockDim, interp.DefaultMaxSteps, wc)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("%s: error %q, reference %q", name, fmt.Sprint(gerr), fmt.Sprint(werr))
	}
	if !bytes.Equal(got.Data, want.Data) {
		t.Fatalf("%s: memory image differs from the reference's", name)
	}
	if !reflect.DeepEqual(gc, wc) {
		t.Fatalf("%s: counters %+v, reference %+v", name, gc, wc)
	}
	perr := interp.RunLaunch(f, args, plain, gridDim, blockDim, interp.DefaultMaxSteps, nil)
	diffPlain(t, name, perr, werr, plain, want)
	return gc.Steps
}

// suiteKernel is one suite kernel as the harness interprets it or as a
// pipeline configuration leaves it.
type suiteKernel struct {
	name string
	f    *ir.Function
	w    *bench.Workload
}

// suiteKernels returns every suite kernel unoptimized and after every
// pipeline configuration that transforms its loop 0 at factor 2.
func suiteKernels(t *testing.T) []suiteKernel {
	t.Helper()
	var ks []suiteKernel
	for _, app := range bench.Suite {
		w := app.NewWorkload()
		f, err := app.CompileKernel()
		if err != nil {
			t.Fatal(err)
		}
		ks = append(ks, suiteKernel{app.Name + " unoptimized", f, w})
		for _, cfg := range pipeline.Configs {
			cr, err := bench.Compile(app, pipeline.Options{Config: cfg, LoopID: 0, Factor: 2})
			if err != nil {
				continue // loop 0 of this app is not transformable under cfg
			}
			ks = append(ks, suiteKernel{fmt.Sprintf("%s %s", app.Name, cfg), cr.Func, w})
		}
	}
	return ks
}

// TestLaunchMatchesReference holds the launch entry, which decodes a
// kernel once and runs every thread over that program in one frame, to the
// map-based reference run thread by thread: every suite kernel, as the
// oracle interprets it and after every pipeline configuration, over a
// launch of the first two blocks of its workload's grid. The 96 launches
// run 99 M steps, most of them in the reference, so they run in parallel.
func TestLaunchMatchesReference(t *testing.T) {
	for _, k := range suiteKernels(t) {
		t.Run(k.name, func(t *testing.T) {
			t.Parallel()
			l := k.w.Launch
			steps := diffLaunch(t, k.name, k.f, k.w.Args, k.w.NewMemory(), min(l.GridDim, 2), l.BlockDim)
			t.Logf("%d steps agree with the reference", steps)
		})
	}
}

// TestConcurrentRunsShareNoFrame runs threads of one kernel from 4
// goroutines at once, each on its own memory, interleaved with runs of a
// second function, and requires each goroutine's returns and memory to be
// the reference's. Under -race it also checks that no two runs share
// anything: each makes its own frame and decodes into it.
func TestConcurrentRunsShareNoFrame(t *testing.T) {
	const goroutines, perGoroutine = 4, 24
	app := bench.ByName("bezier-surface")
	w := app.NewWorkload()
	f, err := app.CompileKernel()
	if err != nil {
		t.Fatal(err)
	}
	locals := localsFunc()
	l := w.Launch
	envOf := func(tid int) interp.Env {
		return interp.Env{TID: int32(tid % l.BlockDim), NTID: int32(l.BlockDim), CTAID: int32(tid / l.BlockDim), NCTAID: int32(l.GridDim)}
	}
	localsArgs := func(tid int) []interp.Value {
		return []interp.Value{interp.IntVal(int64(tid%50 + 1)), interp.FloatVal(float64(tid) + 0.5)}
	}

	// The reference, serially: goroutine g runs threads g, g+4, g+8, ...
	wantMem := make([]*interp.Memory, goroutines)
	wantRet := make([][]interp.Value, goroutines)
	for g := range goroutines {
		wantMem[g] = w.NewMemory()
		for k := range perGoroutine {
			tid := g + k*goroutines
			if _, err := refRunSteps(f, w.Args, wantMem[g], envOf(tid), interp.DefaultMaxSteps, nil); err != nil {
				t.Fatal(err)
			}
			v, err := refRunSteps(locals, localsArgs(tid), interp.NewMemory(0), interp.Env{}, interp.DefaultMaxSteps, nil)
			if err != nil {
				t.Fatal(err)
			}
			wantRet[g] = append(wantRet[g], v)
		}
	}

	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mem := w.NewMemory()
			for k := range perGoroutine {
				tid := g + k*goroutines
				if _, err := interp.RunSteps(f, w.Args, mem, envOf(tid), interp.DefaultMaxSteps, nil); err != nil {
					t.Errorf("goroutine %d thread %d: %v", g, tid, err)
					return
				}
				v, err := interp.RunSteps(locals, localsArgs(tid), interp.NewMemory(0), interp.Env{}, interp.DefaultMaxSteps, nil)
				if err != nil || v != wantRet[g][k] {
					t.Errorf("goroutine %d locals(%d): %+v, %v; reference %+v", g, tid, v, err, wantRet[g][k])
					return
				}
			}
			if !bytes.Equal(mem.Data, wantMem[g].Data) {
				t.Errorf("goroutine %d: memory image differs from the reference's", g)
			}
		}()
	}
	wg.Wait()
}

// TestDecodedEdgesMatchReference covers what decoding moves from the step
// to the edge: the phis of a block are assigned at once, so two that swap
// each other's values swap them; and two things no verified kernel has. A
// phi without an incoming value for an edge is an error only when that
// edge is taken, and a block without a terminator is entered again from
// the same predecessor, its phis re-assigned, until the step budget runs
// out.
func TestDecodedEdgesMatchReference(t *testing.T) {
	swap := ir.NewFunction("swap", ir.I64)
	n := swap.AddParam("n", ir.I64, false)
	entry, loop, exit := swap.NewBlock("entry"), swap.NewBlock("loop"), swap.NewBlock("exit")
	b := ir.NewBuilder(entry)
	b.Br(loop)
	b.SetBlock(loop)
	x, y, i := b.Phi(ir.I64, "x"), b.Phi(ir.I64, "y"), b.Phi(ir.I64, "i")
	next := b.Add(i, ir.ConstInt(ir.I64, 1))
	x.PhiAddIncoming(ir.ConstInt(ir.I64, 1), entry)
	x.PhiAddIncoming(y, loop)
	y.PhiAddIncoming(ir.ConstInt(ir.I64, 2), entry)
	y.PhiAddIncoming(x, loop)
	i.PhiAddIncoming(ir.ConstInt(ir.I64, 0), entry)
	i.PhiAddIncoming(next, loop)
	b.CondBr(b.ICmp(ir.SLT, next, n), loop, exit)
	b.SetBlock(exit)
	b.Ret(b.Add(b.Mul(x, ir.ConstInt(ir.I64, 10)), y)) // 12 after an even number of swaps, 21 after an odd one

	orphan := ir.NewFunction("orphan", ir.I64)
	c := orphan.AddParam("c", ir.I1, false)
	entry, left, right, join := orphan.NewBlock("entry"), orphan.NewBlock("left"), orphan.NewBlock("right"), orphan.NewBlock("join")
	b = ir.NewBuilder(entry)
	b.CondBr(c, left, right)
	b.SetBlock(left)
	b.Br(join)
	b.SetBlock(right)
	b.Br(join)
	b.SetBlock(join)
	p := b.Phi(ir.I64, "p")
	p.PhiAddIncoming(ir.ConstInt(ir.I64, 7), left) // nothing for right
	b.Ret(b.Add(p, ir.ConstInt(ir.I64, 1)))

	open := ir.NewFunction("open", ir.I64)
	out := open.AddParam("out", ir.PointerTo(ir.I64), true)
	start := open.AddParam("start", ir.I64, false)
	entry, loop = open.NewBlock("entry"), open.NewBlock("loop")
	b = ir.NewBuilder(entry)
	b.Br(loop)
	b.SetBlock(loop)
	j := b.Phi(ir.I64, "j")
	j.PhiAddIncoming(start, entry)
	b.Store(b.Add(j, ir.ConstInt(ir.I64, 1)), out) // and no terminator

	for _, tc := range []struct {
		f    *ir.Function
		args []interp.Value
		fail string // "" for none
	}{
		{swap, []interp.Value{interp.IntVal(4)}, ""},
		{swap, []interp.Value{interp.IntVal(5)}, ""},
		{orphan, []interp.Value{interp.IntVal(1)}, ""},
		{orphan, []interp.Value{interp.IntVal(0)}, "interp: phi %p has no incoming for right"},
		{open, []interp.Value{interp.IntVal(0), interp.IntVal(5)}, "interp: step budget exhausted in open"},
	} {
		mem := interp.NewMemory(8)
		_, err := diffRun(t, tc.f.Name, tc.f, tc.args, mem, cloneMem(mem), interp.Env{}, 100)
		if got := fmt.Sprint(err); err == nil && tc.fail != "" || err != nil && got != tc.fail {
			t.Errorf("%s%v: error %v, want %q", tc.f.Name, tc.args, err, tc.fail)
		}
	}
	for n, want := range map[int64]int64{4: 21, 5: 12} {
		got, err := interp.RunCounted(swap, []interp.Value{interp.IntVal(n)}, interp.NewMemory(0), interp.Env{}, nil)
		if err != nil || got.I != want {
			t.Errorf("swap(%d) = %d, %v; want %d", n, got.I, err, want)
		}
	}
}

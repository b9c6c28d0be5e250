package interp_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"uu/internal/bench"
	"uu/internal/interp"
	"uu/internal/ir"
	"uu/internal/pipeline"
)

// TestRecycledFramesAreInvisible interleaves threads of functions whose
// frames differ in size (InstrIDBound), so that nearly every run borrows a
// frame another function, another thread, a trap or a step-budget exit left
// dirty — in the first round some borrow one too small for them, which
// takeFrame grows — and holds each run against the reference interpreter,
// which builds its environment afresh.
func TestRecycledFramesAreInvisible(t *testing.T) {
	type thread struct {
		name   string
		f      *ir.Function
		args   []interp.Value
		mem    *interp.Memory
		env    interp.Env
		budget int64
		fails  func(error) bool // nil: the thread runs to completion
	}
	trap := func(err error) bool { return err != nil && !errors.Is(err, interp.ErrStepBudget) }
	budget := func(err error) bool { return errors.Is(err, interp.ErrStepBudget) }
	locals := localsFunc()
	largs := []interp.Value{interp.IntVal(300), interp.FloatVal(1e9 + 0.3)}
	threads := []thread{
		{"locals, its allocas re-run 300 times", locals, largs, interp.NewMemory(0), interp.Env{}, interp.DefaultMaxSteps, nil},
		{"locals, out of budget mid-loop", locals, largs, interp.NewMemory(0), interp.Env{}, 1000, budget},
		{"load through a phi of allocas", allocaViaPhi(), []interp.Value{interp.IntVal(1)}, interp.NewMemory(64), interp.Env{}, 100, trap},
		{"alloca re-run in a loop, then a select", allocaInLoop(), []interp.Value{interp.IntVal(0)}, interp.NewMemory(64), interp.Env{}, 100, trap},
	}
	for _, name := range []string{"bezier-surface", "rainflow", "complex"} {
		app := bench.ByName(name)
		w := app.NewWorkload()
		mem := w.NewMemory()
		l := w.Launch
		tid := l.Threads() / 3
		env := interp.Env{TID: int32(tid % l.BlockDim), NTID: int32(l.BlockDim), CTAID: int32(tid / l.BlockDim), NCTAID: int32(l.GridDim)}
		f, err := app.CompileKernel()
		if err != nil {
			t.Fatal(err)
		}
		cr, err := bench.Compile(app, pipeline.Options{Config: pipeline.UU, LoopID: 0, Factor: 4})
		if err != nil {
			t.Fatal(err)
		}
		small := &interp.Memory{Data: mem.Data[:12]}
		threads = append(threads,
			thread{name + " unoptimized", f, w.Args, mem, env, interp.DefaultMaxSteps, nil},
			thread{name + " uu u4", cr.Func, w.Args, mem, env, interp.DefaultMaxSteps, nil},
			thread{name + " unoptimized on a 12-byte memory", f, w.Args, small, env, interp.DefaultMaxSteps, trap})
	}
	bounds := map[int]bool{}
	for _, th := range threads {
		bounds[th.f.InstrIDBound()] = true
	}
	if len(bounds) < 6 {
		t.Fatalf("only %d distinct InstrIDBounds among %d threads", len(bounds), len(threads))
	}

	rng := rand.New(rand.NewSource(29))
	for round := 0; round < 5; round++ {
		for _, i := range rng.Perm(len(threads)) {
			th := threads[i]
			name := fmt.Sprintf("round %d: %s", round, th.name)
			_, err := diffRun(t, name, th.f, th.args, cloneMem(th.mem), cloneMem(th.mem), th.env, th.budget)
			switch {
			case th.fails == nil && err != nil:
				t.Fatalf("%s: %v", name, err)
			case th.fails != nil && !th.fails(err):
				t.Fatalf("%s: error %v, not the failure the thread was built for", name, err)
			}
		}
	}
}

// TestConcurrentRunsShareNoFrame runs threads of one kernel from 4
// goroutines at once, each on its own memory, interleaved with runs of a
// second function, and requires each goroutine's returns and memory to be
// the reference's. Under -race it also checks that no frame is borrowed by
// two runs at a time.
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

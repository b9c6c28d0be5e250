package bench

import (
	"context"
	"runtime"
	"testing"

	"uu/internal/codegen"
	"uu/internal/gpusim"
	"uu/internal/ir"
	"uu/internal/pipeline"
)

// worstCell is the sweep's most expensive uu u=8 compile (libor's loop 0:
// 1.9 s before block numbering, 0.45 s before the analyses and the merge
// search were indexed by it, 0.2 s now; the largest by
// pipeline.optimize_ms_max): the unmerged body hits the growth cap, so every
// per-round and per-lookup cost in the merge search and the cleanup passes
// is paid at full size.
func worstCell() (*Benchmark, pipeline.Options) {
	return ByName("libor"), pipeline.Options{Config: pipeline.UU, LoopID: 0, Factor: 8}
}

// worstCellAllocCeiling is twice what compiling worstCell allocates in a
// process that has compiled nothing before (12.3 MB, the copy of the
// once-built kernel it starts from included; 12.8 MB while codegen gave
// every block and every instruction a list of its own; 14.4 MB before the
// passes' tables came from a scratch bundle and ir.Clone carved its copy
// from one array per kind). With the pointer-keyed maps that block and instruction
// numbering replaced — a fresh visited map per merge search, SCCP's edge and
// lattice maps, GVN's string keys — the same compile allocated 216 MB; with
// an undo record and four slices per GVN scope 43 MB; with map-based
// dominator trees, loop info and clone tables, and an SCCP lattice per
// invocation, 27 MB; and with codegen growing each block's instruction list
// by doubling, 16.4 MB — so any of them creeping back onto a hot path fails
// this long before it shows in a timing.
const worstCellAllocCeiling = 25 << 20

// worstCellWarmAllocCeiling is twice what the same compile allocates right
// after the first (9.0 MB; 9.9 MB while codegen gave every block and every
// instruction a list of its own): it borrows the bundle the first one
// filed, so a pass that goes back to building its tables per invocation or
// per compilation fails here.
const worstCellWarmAllocCeiling = 20 << 20

// worstCellContainedAllocCeiling bounds the same compile under the guard
// with the verifier after every pass, right after the plain one (25.7 MB;
// 26.6 MB while codegen gave every block and instruction a list of its own;
// 47.6 MB before the guard wrote each snapshot into the stale one's storage
// and the passes borrowed their tables; 49.6 MB before codegen reserved each
// block's list; 51.2 MB while ir.Clone's two tables were still maps; 56 MB
// while it also grew its lists by appending and built the use lists twice;
// 138 MB while the verifier kept an edge map per block and a position per
// instruction and ir.Clone two value maps; 274 MB while the guard cloned the
// function before every pass invocation and GVN kept per-scope records). It
// is 1.2 times the current figure: a guard that goes back to a fresh copy
// per snapshot, or a verifier that goes back to hashing, fails here before
// it shows in a benchmark.
const worstCellContainedAllocCeiling = 31 << 20

// compileAllocation compiles app under opts and returns the bytes allocated.
func compileAllocation(t *testing.T, app *Benchmark, opts pipeline.Options) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Compile(app, opts); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func TestWorstCellCompileAllocation(t *testing.T) {
	app, opts := worstCell()
	cold := compileAllocation(t, app, opts)
	warm := compileAllocation(t, app, opts)
	t.Logf("compiling %s uu loop 0 u=8 allocated %.1f MB (cold), then %.1f MB (warm)", app.Name, float64(cold)/(1<<20), float64(warm)/(1<<20))
	if cold > worstCellAllocCeiling {
		t.Fatalf("compiling %s uu loop 0 u=8 allocated %.1f MB, ceiling %d MB",
			app.Name, float64(cold)/(1<<20), worstCellAllocCeiling>>20)
	}
	if warm > worstCellWarmAllocCeiling {
		t.Fatalf("compiling %s uu loop 0 u=8 again allocated %.1f MB, ceiling %d MB",
			app.Name, float64(warm)/(1<<20), worstCellWarmAllocCeiling>>20)
	}
}

func TestWorstCellContainedAllocation(t *testing.T) {
	app, opts := worstCell()
	plain := compileAllocation(t, app, opts)
	opts.Contain, opts.VerifyEachPass = true, true
	got := compileAllocation(t, app, opts)
	t.Logf("compiling %s uu loop 0 u=8 contained and verified allocated %.1f MB, %.1f times the plain compile",
		app.Name, float64(got)/(1<<20), float64(got)/float64(plain))
	if got > worstCellContainedAllocCeiling {
		t.Fatalf("compiling %s uu loop 0 u=8 contained and verified allocated %.1f MB, ceiling %d MB",
			app.Name, float64(got)/(1<<20), worstCellContainedAllocCeiling>>20)
	}
}

// worstCellRecycledAllocCeiling bounds what bench.Run allocates for
// worstCell right after a first Run of it whose record was released (2.8 MB,
// the simulation included; 4.6 MB while the program and its decoded form
// were built fresh for every run, 5.5 MB while codegen gave every block and
// instruction a list of its own, 6.3 MB while every analysis tree was built
// in fresh storage): the second compile is carved from the IR store the
// first released — the kernel's copy, every region the unmerger cloned,
// every block it added and every list they grew — borrows the first's pass
// tables and codegen's scratch, and is lowered and decoded in the arrays the
// first's program and decoded form left. The same run allocated 10.5 MB
// while Run released nothing, so the ceiling is 1.5 times the current
// figure, not twice: a copy, clone, block, program or decoded form that goes
// back to fresh storage fails here.
const worstCellRecycledAllocCeiling = 42 << 20 / 10

// runAllocation runs app under opts through Run, returns the bytes
// allocated and then releases the record, as a campaign does once a cell's
// line is logged.
func runAllocation(t *testing.T, app *Benchmark, opts pipeline.Options) uint64 {
	t.Helper()
	w := app.NewWorkload()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec, err := Run(context.Background(), Job{Name: app.Name, Kernel: app.CompileKernel, Workload: w, Options: opts, Device: gpusim.V100()})
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	rec.Release()
	return after.TotalAlloc - before.TotalAlloc
}

func TestWorstCellRecycledRunAllocation(t *testing.T) {
	app, opts := worstCell()
	first := runAllocation(t, app, opts)
	second := runAllocation(t, app, opts)
	t.Logf("running %s uu loop 0 u=8 allocated %.1f MB, then %.1f MB carved from the first's store", app.Name, float64(first)/(1<<20), float64(second)/(1<<20))
	if second > worstCellRecycledAllocCeiling {
		t.Fatalf("running %s uu loop 0 u=8 again allocated %.1f MB, ceiling %.1f MB",
			app.Name, float64(second)/(1<<20), float64(worstCellRecycledAllocCeiling)/(1<<20))
	}
}

// TestLowerAllocations pins what lowering allocates by count: a program is a
// few arrays (instructions, operands, line table, blocks, post-dominators,
// loops, parameters) and codegen's tables come from its recycled scratch, so
// lowering the worst cell — 4 096 blocks — makes as many objects as lowering
// a small one. Both functions were lowered once already, so their critical
// edges are split and the scratch has grown to the larger. No program here
// is released, so each lowering builds its store afresh. It also logs the
// worst cell's bytes and objects, which CI prints.
func TestLowerAllocations(t *testing.T) {
	small, err := Compile(ByName("complex"), pipeline.Options{Config: pipeline.Baseline})
	if err != nil {
		t.Fatal(err)
	}
	app, opts := worstCell()
	worst, err := Compile(app, opts)
	if err != nil {
		t.Fatal(err)
	}
	lower := func(f *ir.Function) {
		if _, err := codegen.Lower(f); err != nil {
			t.Fatal(err)
		}
	}
	objects := func(cr *CompileResult) float64 {
		return testing.AllocsPerRun(5, func() { lower(cr.Func) })
	}
	worstObjects, smallObjects := objects(worst), objects(small)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	lower(worst.Func)
	runtime.ReadMemStats(&after)
	t.Logf("lowering %s uu loop 0 u=8 again (%d blocks, %d instructions) allocated %d bytes in %.0f objects; complex baseline (%d blocks) %.0f objects",
		app.Name, len(worst.Program.Blocks), worst.Program.NumInstrs(), after.TotalAlloc-before.TotalAlloc, worstObjects,
		len(small.Program.Blocks), smallObjects)
	if worstObjects != smallObjects {
		t.Fatalf("lowering allocated %.0f objects for %d blocks but %.0f for %d: something is allocated per block or per instruction",
			worstObjects, len(worst.Program.Blocks), smallObjects, len(small.Program.Blocks))
	}
}

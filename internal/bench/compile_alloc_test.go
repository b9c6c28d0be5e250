package bench

import (
	"runtime"
	"testing"

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

// worstCellAllocCeiling is twice what compiling worstCell allocates (14.4
// MB, the copy of the once-built kernel it starts from included). With the
// pointer-keyed maps that block and instruction numbering replaced — a fresh
// visited map per merge search, SCCP's edge and lattice maps, GVN's string
// keys — the same compile allocated 216 MB; with an undo record and four
// slices per GVN scope 43 MB; with map-based dominator trees, loop info and
// clone tables, and an SCCP lattice per invocation, 27 MB; and with codegen
// growing each block's instruction list by doubling, 16.4 MB — so any of
// them creeping back onto a hot path fails this long before it shows in a
// timing.
const worstCellAllocCeiling = 29 << 20

// worstCellContainedAllocCeiling bounds the same compile under the guard
// with the verifier after every pass (47.6 MB; 49.6 MB before codegen
// reserved each block's list; 51.2 MB while ir.Clone's two tables were
// still maps; 56 MB while it also grew its lists by appending and built the
// use lists twice; 138 MB while the verifier kept an edge map per block and
// a position per instruction and ir.Clone two value maps; 274 MB while the
// guard cloned the function before every pass invocation and GVN kept
// per-scope records). It is 1.2 times the current figure: a guard that goes
// back to one snapshot per invocation, or a verifier that goes back to
// hashing, fails here before it shows in a benchmark.
const worstCellContainedAllocCeiling = 57 << 20

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
	got := compileAllocation(t, app, opts)
	t.Logf("compiling %s uu loop 0 u=8 allocated %.1f MB", app.Name, float64(got)/(1<<20))
	if got > worstCellAllocCeiling {
		t.Fatalf("compiling %s uu loop 0 u=8 allocated %.1f MB, ceiling %d MB",
			app.Name, float64(got)/(1<<20), worstCellAllocCeiling>>20)
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

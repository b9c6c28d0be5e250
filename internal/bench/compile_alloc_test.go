package bench

import (
	"runtime"
	"testing"

	"uu/internal/pipeline"
)

// worstCell is the sweep's most expensive uu u=8 compile (libor's loop 0:
// 1.9 s before block numbering, the largest by pipeline.optimize_ms_max):
// the unmerged body hits the growth cap, so every per-round and per-lookup
// cost in the merge search and the cleanup passes is paid at full size.
func worstCell() (*Benchmark, pipeline.Options) {
	return ByName("libor"), pipeline.Options{Config: pipeline.UU, LoopID: 0, Factor: 8}
}

// worstCellAllocCeiling is twice what compiling worstCell allocates (43 MB).
// With the pointer-keyed maps that block and instruction numbering replaced
// — a fresh visited map per merge search, SCCP's edge and lattice maps,
// GVN's string keys — the same compile allocated 216 MB, so a map creeping
// back onto a hot path fails this long before it shows in a timing.
const worstCellAllocCeiling = 86 << 20

func TestWorstCellCompileAllocation(t *testing.T) {
	app, opts := worstCell()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Compile(app, opts); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("compiling %s uu loop 0 u=8 allocated %.1f MB", app.Name, float64(got)/(1<<20))
	if got > worstCellAllocCeiling {
		t.Fatalf("compiling %s uu loop 0 u=8 allocated %.1f MB, ceiling %d MB",
			app.Name, float64(got)/(1<<20), worstCellAllocCeiling>>20)
	}
}

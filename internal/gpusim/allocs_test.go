package gpusim

import (
	"testing"

	"uu/internal/interp"
	"uu/internal/pipeline"
)

// TestWarpLoopZeroAllocs enforces the steady-state allocation contract of
// the execution core: after one warm-up warp (which may grow the
// reconvergence stack once), running further warps performs no heap
// allocations at all. This is what makes the simulator's throughput scale
// with instruction count instead of with GC pressure. The threaded-code
// compilation (closures, const pool, SoA files) happens entirely before
// the first warp.
func TestWarpLoopZeroAllocs(t *testing.T) {
	divergentSrc := `
kernel d(double* restrict x, long n) {
  long i = (long)global_id();
  if (i < n) {
    double v = x[i];
    if (i % 2 == 0) {
      v = v * 3.0 + 1.0;
    } else {
      v = v / 2.0;
    }
    x[i] = v;
  }
}
`
	for _, tc := range []struct {
		name string
		src  string
	}{
		{"compute", axpySrc},
		{"divergent", divergentSrc},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := build(t, tc.src, pipeline.Options{Config: pipeline.Baseline})
			cfg := V100()
			mem := interp.NewMemory(1 << 16)
			args := make([]interp.Value, len(p.ParamRegs))
			for i := range args {
				args[i] = interp.IntVal(64) // in-bounds pointer / small n
			}
			launch := Launch{GridDim: 4, BlockDim: 64}

			dp, err := decoded(p)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			// newWarpSim compiles the threaded program (memoized on
			// dp), so the AllocsPerRun loops below measure only the
			// warp loop.
			w := newWarpSim(dp, cfg, mem)
			w.fetchMode = fetchBitset
			w.touched = make([]uint64, bitWords(dp.numLines(cfg.ICacheLineInstrs)))

			var m Metrics
			if err := w.runThreaded(args, launch, 0, cfg.WarpSize, &m); err != nil {
				t.Fatalf("warm-up run: %v", err)
			}
			allocs := testing.AllocsPerRun(10, func() {
				if err := w.runThreaded(args, launch, cfg.WarpSize, cfg.WarpSize, &m); err != nil {
					t.Fatalf("run: %v", err)
				}
			})
			if allocs != 0 {
				t.Fatalf("steady-state warp loop allocates: %v allocs/run, want 0", allocs)
			}

			// Profiling must not change the contract: the counter arrays are
			// allocated once up front (NewProfile), and the hot loop only
			// increments them in place.
			w.prof = newProfileN(dp.name, len(dp.ops))
			if err := w.runThreaded(args, launch, 0, cfg.WarpSize, &m); err != nil {
				t.Fatalf("profiled warm-up run: %v", err)
			}
			allocs = testing.AllocsPerRun(10, func() {
				if err := w.runThreaded(args, launch, cfg.WarpSize, cfg.WarpSize, &m); err != nil {
					t.Fatalf("profiled run: %v", err)
				}
			})
			if allocs != 0 {
				t.Fatalf("profiled warp loop allocates: %v allocs/run, want 0", allocs)
			}
		})
	}
}

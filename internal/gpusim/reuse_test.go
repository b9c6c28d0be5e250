package gpusim_test

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"

	"uu/internal/bench"
	"uu/internal/gpusim"
	"uu/internal/interp"
	"uu/internal/pipeline"
)

// program is one suite app compiled under one configuration.
type program struct {
	name string
	w    *bench.Workload
	cr   *bench.CompileResult
}

// suitePrograms compiles every suite app as baseline and as uu-heuristic.
func suitePrograms(t *testing.T) []program {
	var progs []program
	for _, b := range bench.Suite {
		for _, c := range []pipeline.Config{pipeline.Baseline, pipeline.UUHeuristic} {
			cr, err := bench.Compile(b, pipeline.Options{Config: c})
			if err != nil {
				t.Fatalf("%s %s: %v", b.Name, c, err)
			}
			progs = append(progs, program{b.Name + "/" + string(c), b.NewWorkload(), cr})
		}
	}
	return progs
}

// TestReuseIsInvisible pins the re-initialise-on-acquire rule of the
// run-state and memory free lists: for every suite app x {baseline,
// uu-heuristic} x four devices x both executors, a run on recycled state
// returns metrics, per-PC profile and final memory byte-identical to a run
// on state built from scratch — after the lists were dirtied by a different
// program on a different device and by runs of this program that ended in an
// out-of-bounds fault, an exhausted step budget and a cancelled context.
// -sim-workers selects the schedule (CI also runs it at 4, under -race).
func TestReuseIsInvisible(t *testing.T) {
	progs := suitePrograms(t)
	specs := []string{"V100", "MinSPPC", "Vortex", "V100:warpsize=8"}
	var devs []gpusim.DeviceConfig
	for _, spec := range specs {
		cfg, _, err := gpusim.ParseDevice(spec)
		if err != nil {
			t.Fatal(err)
		}
		devs = append(devs, cfg)
	}
	workers := gpusim.SimWorkers()
	canceled, cancel := context.WithCancel(context.Background())
	cancel()

	for pi, p := range progs {
		for di, dev := range devs {
			for _, exec := range gpusim.Execs() {
				name := p.name + "/" + specs[di] + "/" + exec.String()
				cfg := dev
				cfg.Exec = exec
				few := p.w.Launch
				few.SampleWarps = 4
				// The switch executor — no CLI or benchmark default — runs
				// the grid's first warps only: it is 2.4x slower, and stale
				// state shows within a warp.
				grid := p.w.Launch
				if exec == gpusim.ExecSwitch {
					grid.SampleWarps = 8
				}
				// The grid without a profile (the steady-state fast loop
				// only runs unprofiled), then a few warps with one.
				run := func(mem *interp.Memory) (full, sampled *gpusim.Metrics, prof *gpusim.Profile) {
					full, err := gpusim.RunWorkers(p.cr.Program, p.w.Args, mem, grid, cfg, workers)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					prof = gpusim.NewProfile(p.cr.Program)
					sampled, err = gpusim.RunWorkersProfiled(p.cr.Program, p.w.Args, mem, few, cfg, workers, nil, 0, prof)
					if err != nil {
						t.Fatalf("%s: profiled: %v", name, err)
					}
					return full, sampled, prof
				}

				gpusim.DropRunState()
				freshMem := p.w.NewMemory()
				freshM, freshSampled, freshProf := run(freshMem)

				// Dirty both lists. A few warps are enough to leave every
				// buffer written; the failed runs hand back garbage memory.
				other, odev := progs[(pi+1)%len(progs)], devs[(di+1)%len(devs)]
				odev.Exec = exec
				ofew := other.w.Launch
				ofew.SampleWarps = 4
				omem := other.w.AcquireMemory()
				if _, err := gpusim.RunWorkers(other.cr.Program, other.w.Args, omem, ofew, odev, workers); err != nil {
					t.Fatalf("%s: dirtying run of %s: %v", name, other.name, err)
				}
				interp.ReleaseMemory(omem)

				tiny := interp.AcquireMemory(8, nil)
				if _, err := gpusim.RunWorkers(p.cr.Program, p.w.Args, tiny, few, cfg, workers); err == nil {
					t.Fatalf("%s: run on an 8-byte memory did not fault", name)
				}
				interp.ReleaseMemory(tiny)

				starved := cfg
				starved.MaxWarpSteps = 12
				smem := p.w.AcquireMemory()
				if _, err := gpusim.RunWorkers(p.cr.Program, p.w.Args, smem, few, starved, workers); !errors.Is(err, gpusim.ErrCycleBudget) {
					t.Fatalf("%s: starved run: got %v, want ErrCycleBudget", name, err)
				}
				interp.ReleaseMemory(smem)

				cmem := p.w.AcquireMemory()
				if _, err := gpusim.RunWorkersProfiledCtx(canceled, p.cr.Program, p.w.Args, cmem, few, cfg, workers, nil, 0, nil); !errors.Is(err, context.Canceled) {
					t.Fatalf("%s: cancelled run: got %v, want context.Canceled", name, err)
				}
				interp.ReleaseMemory(cmem)

				mem := p.w.AcquireMemory()
				m, sampled, prof := run(mem)
				if *m != *freshM {
					t.Errorf("%s: metrics on recycled state differ:\n got %+v\nwant %+v", name, *m, *freshM)
				}
				if *sampled != *freshSampled {
					t.Errorf("%s: profiled metrics on recycled state differ:\n got %+v\nwant %+v", name, *sampled, *freshSampled)
				}
				if !reflect.DeepEqual(prof, freshProf) {
					t.Errorf("%s: profile on recycled state differs", name)
				}
				if !bytes.Equal(mem.Data, freshMem.Data) {
					t.Errorf("%s: final memory on recycled state differs", name)
				}
				interp.ReleaseMemory(mem)
			}
		}
	}
}

// TestMinSPPCMatchesReferenceScheduler is the exact-equality guard of the
// MinSP-PC engine's unsettled flag: on every suite app, baseline and
// uu-heuristic, the production scheduler and the reference that re-scans
// every barrier on every pass produce the same metrics, per-PC profile
// (divergence, reconvergence and barrier-wait events included) and final
// memory. One executor suffices: the engine is shared, and
// TestExecutorDifferential pins the executors to each other on MinSPPC.
func TestMinSPPCMatchesReferenceScheduler(t *testing.T) {
	cfg := gpusim.MinSPPC()
	for _, p := range suitePrograms(t) {
		prog, w := p.cr.Program, p.w
		mem, prof := w.NewMemory(), gpusim.NewProfile(prog)
		m, err := gpusim.RunWorkersProfiled(prog, w.Args, mem, w.Launch, cfg, 1, nil, 0, prof)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		refMem, refProf := w.NewMemory(), gpusim.NewProfile(prog)
		refM, err := gpusim.RunReferenceMinSPPC(prog, w.Args, refMem, w.Launch, cfg, refProf)
		if err != nil {
			t.Fatalf("%s: reference: %v", p.name, err)
		}
		if *m != *refM {
			t.Errorf("%s: metrics differ from the reference scheduler:\n got %+v\nwant %+v", p.name, *m, *refM)
		}
		if !reflect.DeepEqual(prof, refProf) {
			t.Errorf("%s: profile differs from the reference scheduler", p.name)
		}
		if !bytes.Equal(mem.Data, refMem.Data) {
			t.Errorf("%s: final memory differs from the reference scheduler", p.name)
		}
	}
}

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

// testSpecs are the devices the reuse and differential tests sweep: the
// three divergence policies, and a narrow warp for the partial-mask paths.
var testSpecs = []string{"V100", "MinSPPC", "Vortex", "V100:warpsize=8"}

// testDevices parses testSpecs, in order.
func testDevices(t *testing.T) []gpusim.DeviceConfig {
	var devs []gpusim.DeviceConfig
	for _, spec := range testSpecs {
		cfg, _, err := gpusim.ParseDevice(spec)
		if err != nil {
			t.Fatal(err)
		}
		devs = append(devs, cfg)
	}
	return devs
}

// TestReuseIsInvisible pins the re-initialise-on-acquire rule of the
// run-state and memory free lists: for every suite app x {baseline,
// uu-heuristic} x four devices, a run on recycled state returns metrics,
// per-PC profile and final memory byte-identical to a run on state built
// from scratch — after the lists were dirtied by a different
// program on a different device and by runs of this program that ended in an
// out-of-bounds fault, an exhausted step budget and a cancelled context.
func TestReuseIsInvisible(t *testing.T) {
	progs := suitePrograms(t)
	devs := testDevices(t)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()

	for pi, p := range progs {
		for di, cfg := range devs {
			name := p.name + "/" + testSpecs[di]
			few := p.w.Launch
			few.SampleWarps = 4
			// The grid without a profile (the steady-state fast loop
			// only runs unprofiled), then a few warps with one.
			run := func(mem *interp.Memory) (full, sampled *gpusim.Metrics, prof *gpusim.Profile) {
				full, err := gpusim.Run(p.cr.Program, p.w.Args, mem, p.w.Launch, cfg)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				prof = gpusim.NewProfile(p.cr.Program)
				sampled, err = gpusim.RunCtx(context.Background(), p.cr.Program, p.w.Args, mem, few, cfg, prof)
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
			ofew := other.w.Launch
			ofew.SampleWarps = 4
			omem := other.w.AcquireMemory()
			if _, err := gpusim.Run(other.cr.Program, other.w.Args, omem, ofew, odev); err != nil {
				t.Fatalf("%s: dirtying run of %s: %v", name, other.name, err)
			}
			interp.ReleaseMemory(omem)

			tiny := interp.AcquireMemory(8, nil)
			if _, err := gpusim.Run(p.cr.Program, p.w.Args, tiny, few, cfg); err == nil {
				t.Fatalf("%s: run on an 8-byte memory did not fault", name)
			}
			interp.ReleaseMemory(tiny)

			starved := cfg
			starved.MaxWarpSteps = 12
			smem := p.w.AcquireMemory()
			if _, err := gpusim.Run(p.cr.Program, p.w.Args, smem, few, starved); !errors.Is(err, gpusim.ErrCycleBudget) {
				t.Fatalf("%s: starved run: got %v, want ErrCycleBudget", name, err)
			}
			interp.ReleaseMemory(smem)

			cmem := p.w.AcquireMemory()
			if _, err := gpusim.RunCtx(canceled, p.cr.Program, p.w.Args, cmem, few, cfg, nil); !errors.Is(err, context.Canceled) {
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

// TestMinSPPCMatchesReferenceScheduler is the exact-equality guard of the
// MinSP-PC engine's unsettled flag: on every suite app, baseline and
// uu-heuristic, the production scheduler and the reference that re-scans
// every barrier on every pass produce the same metrics, per-PC profile
// (divergence, reconvergence and barrier-wait events included) and final
// memory.
func TestMinSPPCMatchesReferenceScheduler(t *testing.T) {
	cfg := gpusim.MinSPPC()
	for _, p := range suitePrograms(t) {
		prog, w := p.cr.Program, p.w
		mem, prof := w.NewMemory(), gpusim.NewProfile(prog)
		m, err := gpusim.RunCtx(context.Background(), prog, w.Args, mem, w.Launch, cfg, prof)
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

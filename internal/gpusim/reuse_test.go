package gpusim_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/bits"
	"reflect"
	"testing"

	"uu/internal/bench"
	"uu/internal/codegen"
	"uu/internal/gpusim"
	"uu/internal/interp"
	"uu/internal/pipeline"
)

// program is one suite app compiled under one configuration.
type program struct {
	name string
	b    *bench.Benchmark
	c    pipeline.Config
	w    *bench.Workload
	cr   *bench.CompileResult
}

// suitePrograms compiles every suite app as baseline and as uu-heuristic.
func suitePrograms(t *testing.T) []program {
	var progs []program
	for _, b := range bench.Suite {
		for _, c := range []pipeline.Config{pipeline.Baseline, pipeline.UUHeuristic} {
			p := program{name: b.Name + "/" + string(c), b: b, c: c, w: b.NewWorkload()}
			p.cr = p.compile(t)
			progs = append(progs, p)
		}
	}
	return progs
}

// compile compiles p's app under p's configuration again.
func (p program) compile(t *testing.T) *bench.CompileResult {
	cr, err := bench.Compile(p.b, pipeline.Options{Config: p.c})
	if err != nil {
		t.Fatalf("%s: %v", p.name, err)
	}
	return cr
}

// inLeftovers compiles and decodes p again right after a fresh compile of
// mate was decoded and released (gpusim.ReleaseProgram), so that p is
// lowered in the store and decoded in the form mate left, and requires the
// same VPTX text and line table as p's first compile. A program that
// does not fit what mate left grows it. The free lists must be empty on
// entry, as nothing but this helper releases a program in this package's
// tests and it leaves them empty: the copy it returns is not released.
func inLeftovers(t *testing.T, p, mate program) *codegen.Program {
	m := mate.compile(t).Program
	if err := gpusim.Prepare(m); err != nil {
		t.Fatal(err)
	}
	instrs, form := &m.Blocks[0].Instrs[0], gpusim.DecodedForm(m)
	fits := m.NumInstrs() >= p.cr.Program.NumInstrs()
	gpusim.ReleaseProgram(m)
	r := p.compile(t).Program
	if err := gpusim.Prepare(r); err != nil {
		t.Fatal(err)
	}
	if fits && &r.Blocks[0].Instrs[0] != instrs {
		t.Errorf("%s: not lowered in the instruction array %s released", p.name, mate.name)
	}
	if gpusim.DecodedForm(r) != form {
		t.Errorf("%s: not decoded in the form %s released", p.name, mate.name)
	}
	if r.String() != p.cr.Program.String() {
		t.Errorf("%s: VPTX lowered where %s left its program differs", p.name, mate.name)
	}
	if !reflect.DeepEqual(r.Lines, p.cr.Program.Lines) {
		t.Errorf("%s: line table lowered where %s left its program differs", p.name, mate.name)
	}
	return r
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
// Then, where a warp width of 1 to 32 puts it in the same class, on state
// that the widest-file program left on a narrower warp (lane buffers too
// small) and that the narrowest-file program left on a wider one
// (scoreboard and block tables too small), checking that the run took it.
// Last, each app is lowered and decoded again in the program store and the
// decoded form that the largest and the smallest program released
// (inLeftovers), and runs on every device as its first compile does.
func TestReuseIsInvisible(t *testing.T) {
	progs := suitePrograms(t)
	devs := testDevices(t)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	// Run state is recycled within the class of its register files' size,
	// warp width times file registers rounded up to a power of two.
	ceil := func(n int) int { return 1 << bits.Len(uint(n-1)) }
	wide, thin := progs[0], progs[0]
	for _, p := range progs {
		if gpusim.FileRegs(p.cr.Program) > gpusim.FileRegs(wide.cr.Program) {
			wide = p
		}
		if gpusim.FileRegs(p.cr.Program) < gpusim.FileRegs(thin.cr.Program) {
			thin = p
		}
	}
	narrowed, widened := 0, 0 // cases whose class-mate ran on a narrower or wider warp
	largest, smallest := progs[0], progs[0]
	for _, p := range progs {
		if p.cr.Program.NumInstrs() > largest.cr.Program.NumInstrs() {
			largest = p
		}
		if p.cr.Program.NumInstrs() < smallest.cr.Program.NumInstrs() {
			smallest = p
		}
	}

	for pi, p := range progs {
		leftovers := []program{largest, smallest}
		var again []*codegen.Program
		for _, mate := range leftovers {
			again = append(again, inLeftovers(t, p, mate))
		}
		for di, cfg := range devs {
			name := p.name + "/" + testSpecs[di]
			few := p.w.Launch
			few.SampleWarps = 4
			// The grid without a profile (the steady-state fast loop
			// only runs unprofiled), then a few warps with one.
			run := func(prog *codegen.Program, mem *interp.Memory) (full, sampled *gpusim.Metrics, prof *gpusim.Profile) {
				full, err := gpusim.Run(prog, p.w.Args, mem, p.w.Launch, cfg)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				prof = gpusim.NewProfile(prog)
				sampled, err = gpusim.RunCtx(context.Background(), prog, p.w.Args, mem, few, cfg, prof)
				if err != nil {
					t.Fatalf("%s: profiled: %v", name, err)
				}
				return full, sampled, prof
			}

			gpusim.DropRunState()
			freshMem := p.w.NewMemory()
			freshM, freshSampled, freshProf := run(p.cr.Program, freshMem)

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

			check := func(state string, prog *codegen.Program) {
				mem := p.w.AcquireMemory()
				m, sampled, prof := run(prog, mem)
				if *m != *freshM {
					t.Errorf("%s: metrics on %s differ:\n got %+v\nwant %+v", name, state, *m, *freshM)
				}
				if *sampled != *freshSampled {
					t.Errorf("%s: profiled metrics on %s differ:\n got %+v\nwant %+v", name, state, *sampled, *freshSampled)
				}
				if !reflect.DeepEqual(prof, freshProf) {
					t.Errorf("%s: profile on %s differs", name, state)
				}
				if !bytes.Equal(mem.Data, freshMem.Data) {
					t.Errorf("%s: final memory on %s differs", name, state)
				}
				interp.ReleaseMemory(mem)
			}
			check("recycled state", p.cr.Program)
			for k, r := range again {
				check("a program lowered and decoded where "+leftovers[k].name+" left its own", r)
			}

			for _, mate := range []program{wide, thin} {
				mcfg := cfg
				mcfg.WarpSize = cfg.WarpSize * ceil(gpusim.FileRegs(p.cr.Program)) / ceil(gpusim.FileRegs(mate.cr.Program))
				if mcfg.WarpSize < 1 || mcfg.WarpSize > 32 || mcfg.WarpSize == cfg.WarpSize {
					continue
				}
				if mcfg.WarpSize < cfg.WarpSize {
					narrowed++
				} else {
					widened++
				}
				gpusim.DropRunState()
				mfew := mate.w.Launch
				mfew.SampleWarps = 4
				mmem := mate.w.AcquireMemory()
				if _, err := gpusim.Run(mate.cr.Program, mate.w.Args, mmem, mfew, mcfg); err != nil {
					t.Fatalf("%s: %d-lane run of %s: %v", name, mcfg.WarpSize, mate.name, err)
				}
				interp.ReleaseMemory(mmem)
				left := gpusim.RunStates()
				check(fmt.Sprintf("state of a %d-lane warp of %s", mcfg.WarpSize, mate.name), p.cr.Program)
				if now := gpusim.RunStates(); len(left) != 1 || len(now) != 1 || now[0] != left[0] {
					t.Errorf("%s: the run did not take the state a %d-lane warp of %s left", name, mcfg.WarpSize, mate.name)
				}
			}
		}
	}
	if narrowed == 0 || widened == 0 {
		t.Fatalf("%d cases ran on state a narrower warp left and %d on state a wider one; want some of each", narrowed, widened)
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

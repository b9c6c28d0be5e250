package bench

import (
	"context"
	"time"

	"uu/internal/codegen"
	"uu/internal/gpusim"
	"uu/internal/interp"
	"uu/internal/ir"
	"uu/internal/pipeline"
	"uu/internal/remark"
)

// Job is one kernel to run: its frontend, the input configuration it runs
// on, the pipeline configuration it is compiled under and the device it is
// simulated on.
type Job struct {
	// Name labels the run's pipeline and codegen errors:
	// "bench <Name> (<config>): ...".
	Name string
	// Kernel returns a fresh copy of the kernel as its frontend built it,
	// the run's to optimize and then release: Benchmark.CompileKernel, or a
	// clone of a function the caller's own frontend built. Run hands the
	// copy to ir.Release once codegen has lowered it, so nothing else may
	// reference it.
	Kernel   func() (*ir.Function, error)
	Workload *Workload
	// Options configures the pipeline. A Remarks collector there fills
	// RunRecord.Remarks.
	Options pipeline.Options
	Device  gpusim.DeviceConfig
	// Want, when non-nil, is the oracle memory (Reference) the outputs must
	// match; the simulation then runs every warp.
	Want *interp.Memory
	// Profile collects a per-PC hotspot profile into RunRecord.Profile.
	Profile bool
}

// RunRecord is one kernel run: what Run measured, plus the harness's labels
// (App, LoopID, Factor, Worker, Skipped) when a campaign made it.
type RunRecord struct {
	App    string
	Config pipeline.Config
	LoopID int // -1 for whole-app configurations (baseline, heuristic)
	Factor int // 0 when not applicable

	Millis    float64
	CodeBytes int64
	CompileMs float64
	Metrics   *gpusim.Metrics
	Skipped   string // non-empty when the loop was untransformable
	// Stats is the compilation's own record as far as it got — ordered pass
	// record, compile clock, the heuristic's Decisions and Skips, and the
	// pass Failures the guard contained (pipeline.Options.Contain; such a
	// run still produced a program, but its numbers describe the pipeline
	// with those passes skipped). Nil only when the frontend failed. The
	// four fields after it are the run's host-side wall clock, which
	// depends on machine load and worker count and describes the harness,
	// not the kernel; Trace renders both.
	Stats        *pipeline.Stats
	Worker       int           // harness worker that ran the job
	Start        time.Time     // when the run began
	CompileWall  time.Duration // frontend copy + pipeline + codegen, from Start
	SimulateWall time.Duration // simulation + oracle comparison, right after
	// Remarks is this run's optimization-remark stream, in emission order.
	// In a campaign (HarnessOptions.Remarks) the final entry is the gpusim
	// SimMetrics remark for runs that simulated.
	Remarks []remark.Remark
	// Program is the lowered kernel, nil when the compile failed and after
	// Release. Profile is its per-PC hotspot profile (Job.Profile),
	// byte-identical for any harness Workers count, and nil when profiling
	// is off.
	Program *codegen.Program
	Profile *gpusim.Profile
}

// Release hands the record's program and the simulator's decoded form of it
// back for the next run to be lowered and decoded in
// (gpusim.ReleaseProgram), and sets Program to nil. It is for the record's
// owner, after the program's last reader: a campaign once a cell's line is
// logged, unless a profile report will join the cell's Profile with it; uud
// once the response is rendered. Everything else the record holds stays.
func (r *RunRecord) Release() {
	if r.Program != nil {
		gpusim.ReleaseProgram(r.Program)
		r.Program = nil
	}
}

// Speedup returns base.Millis / r.Millis (the paper's speedup definition,
// kernel time only).
func (r *RunRecord) Speedup(base *RunRecord) float64 {
	if r.Millis == 0 {
		return 0
	}
	return base.Millis / r.Millis
}

// Run compiles and simulates one kernel and returns its record. It is the
// one way the campaign drivers, uud and uurun run a kernel, and it holds
// the run's only clock: Start, then CompileWall over the frontend copy,
// pipeline and codegen, then SimulateWall over the simulation and the
// oracle comparison. Cancellation of ctx stops the pipeline at the next
// pass boundary and the simulation at the next warp-block boundary.
//
// The record is never nil; on error it holds what ran. A failed compile —
// frontend, pipeline or codegen — leaves Program nil (and Stats nil when
// the frontend failed); a failed simulation or verification leaves Metrics
// nil. Nothing in the record references IR: the compiled copy is released
// (ir.Release) before the simulation starts, and its storage is carved into
// the next compilation's. The program is the record's owner's to release
// (RunRecord.Release).
func Run(ctx context.Context, j Job) (*RunRecord, error) {
	rec := &RunRecord{Config: j.Options.Config, Start: time.Now()}
	f, st, prog, err := compile(ctx, j.Name, j.Kernel, j.Options)
	if f != nil {
		ir.Release(f)
	}
	compiled := time.Now()
	rec.Stats, rec.Program, rec.CompileWall = st, prog, compiled.Sub(rec.Start)
	if err != nil {
		rec.Remarks = j.Options.Remarks.Remarks()
		return rec, err
	}
	rec.CompileMs = float64((st.CompileTime - st.VerifyTime).Microseconds()) / 1000
	rec.CodeBytes = prog.CodeBytes()
	if j.Profile {
		rec.Profile = gpusim.NewProfile(prog)
	}
	m, err := execute(ctx, prog, j.Workload, j.Device, j.Want, rec.Profile)
	rec.SimulateWall = time.Since(compiled)
	rec.Remarks = j.Options.Remarks.Remarks()
	if err != nil {
		return rec, err
	}
	rec.Metrics, rec.Millis = m, m.KernelMillis(j.Device)
	return rec, nil
}

package bench

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"uu/internal/analysis"
	"uu/internal/codegen"
	"uu/internal/gpusim"
	"uu/internal/harden"
	"uu/internal/interp"
	"uu/internal/pipeline"
	"uu/internal/remark"
)

// RunRecord is one (application, configuration, loop, factor) measurement.
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
	// pass Failures the guard contained (HarnessOptions.Contain; such a run
	// still produced a program, but its numbers describe the pipeline with
	// those passes skipped). Nil only when the frontend failed. The four
	// fields after it are the job's host-side wall clock, which depends on
	// machine load and worker count and describes the harness, not the
	// kernel; TraceCampaign renders both.
	Stats        *pipeline.Stats
	Worker       int           // harness worker that ran the job
	Start        time.Time     // when it picked the job up
	CompileWall  time.Duration // frontend + pipeline + codegen, from Start
	SimulateWall time.Duration // simulation + oracle comparison, right after
	// Remarks is this run's optimization-remark stream, in emission order
	// (HarnessOptions.Remarks). The final entry is the gpusim SimMetrics
	// remark for runs that simulated.
	Remarks []remark.Remark
	// Profile is the run's per-PC hotspot profile (HarnessOptions.Profile),
	// byte-identical for any Workers count; Program is retained
	// alongside it so reports can join the profile with the line table.
	// Both are nil when profiling is off.
	Profile *gpusim.Profile
	Program *codegen.Program
}

// Speedup returns base.Millis / r.Millis (the paper's speedup definition,
// kernel time only).
func (r *RunRecord) Speedup(base *RunRecord) float64 {
	if r.Millis == 0 {
		return 0
	}
	return base.Millis / r.Millis
}

// Results holds a full experiment sweep.
type Results struct {
	Device gpusim.DeviceConfig
	// DeviceName is the registry (or registry:override) name of Device, and
	// Input the input mode the whole sweep ran under — the two campaign
	// dimensions a multi-sweep matrix varies.
	DeviceName string
	Input      InputMode
	Factors    []int
	Baseline   map[string]*RunRecord // app -> baseline
	Heuristic  map[string]*RunRecord // app -> heuristic u&u
	PerLoop    []*RunRecord          // unroll/unmerge/uu per loop and factor
	LoopCount  map[string]int
	// Failures aggregates every contained pass failure across the sweep
	// (each run's Stats.Failures); empty unless HarnessOptions.Contain.
	Failures []harden.PassFailure
	// Remarks is every run's remark stream concatenated in campaign order
	// (HarnessOptions.Remarks). Each run emits into its own collector, so
	// this assembled stream is byte-identical for any Workers count.
	Remarks []remark.Remark
}

// HarnessOptions configures an experiment sweep.
type HarnessOptions struct {
	Apps    []string // nil = whole suite
	Factors []int    // nil = {2,4,8} as in the paper
	Verify  bool     // check every run against the interpreter oracle
	Device  *gpusim.DeviceConfig
	// DeviceName labels Device in results and reports (a gpusim registry
	// name, possibly with overrides). Empty means "V100", matching the
	// Device default.
	DeviceName string
	// Input selects the workload input mode for every run of the sweep;
	// empty means InputCoherent (the paper's setup).
	Input InputMode
	// Progress receives one line per completed run when non-nil. Lines are
	// written atomically but, with Workers > 1, in completion order rather
	// than campaign order.
	Progress io.Writer
	// Workers caps the number of concurrent measurement goroutines;
	// 0 means GOMAXPROCS. Results are identical and identically ordered
	// regardless of the worker count — every run is an independent
	// compile+simulate on its own function, so only wall clock changes.
	Workers int
	// Contain runs every compilation under the crash-containment guard: a
	// panicking (or, with VerifyEach, verifier-rejected) pass is rolled
	// back and skipped, the failure is recorded on the run and aggregated
	// into Results.Failures, and the campaign keeps going instead of
	// aborting. The healthy path is byte-identical with or without it.
	Contain bool
	// VerifyEach runs the IR verifier after every pass of every run.
	VerifyEach bool
	// Inject appends extra passes to every compilation — the fault
	// injection hook the end-to-end containment tests use.
	Inject []analysis.Pass
	// Remarks collects every run's optimization remarks (RunRecord.Remarks,
	// Results.Remarks). Off by default: a disabled sink costs nothing.
	Remarks bool
	// Profile collects a per-PC hotspot profile for every run
	// (RunRecord.Profile). Profiles, like metrics, are identical for any
	// Workers count. Off by default.
	Profile bool
}

// campaignDefaults resolves what every campaign driver's options leave
// unset: the V100 device and its name, the coherent input mode, and the
// whole suite when no application subset is named.
func campaignDefaults(device *gpusim.DeviceConfig, deviceName string, input InputMode, appNames []string) (gpusim.DeviceConfig, string, InputMode, []*Benchmark, error) {
	dev := gpusim.V100()
	if device != nil {
		dev = *device
	}
	if deviceName == "" {
		deviceName = "V100"
	}
	if input == "" {
		input = InputCoherent
	}
	apps := Suite
	if appNames != nil {
		apps = nil
		for _, name := range appNames {
			b := ByName(name)
			if b == nil {
				return dev, deviceName, input, nil, fmt.Errorf("bench: unknown application %q", name)
			}
			apps = append(apps, b)
		}
	}
	return dev, deviceName, input, apps, nil
}

// runIndexed is the campaign drivers' worker pool: it calls fn(worker, i)
// once for every i in [0, n) on min(workers, n) goroutines (workers <= 0
// means GOMAXPROCS) and returns when all have finished. Indices are claimed
// in order, and none is claimed once ctx is done. Callers write results by
// index, which is what makes their assembled output independent of the
// worker count.
func runIndexed(ctx context.Context, workers, n int, fn func(worker, i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(worker, i)
			}
		}(w)
	}
	wg.Wait()
}

// progressLog returns a printf that writes one whole line to w at a time
// (workers share it), or drops the line when w is nil.
func progressLog(w io.Writer) func(format string, args ...any) {
	var mu sync.Mutex
	return func(format string, args ...any) {
		if w == nil {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		fmt.Fprintf(w, format+"\n", args...)
	}
}

// harnessJob is one planned (application, configuration, loop, factor)
// measurement. Jobs are enumerated in campaign order up front; workers pick
// them up in that order and write results by index, so the assembled
// Results are identical regardless of concurrency.
type harnessJob struct {
	b      *Benchmark
	w      *Workload
	ref    *interp.Memory // verification oracle, nil unless opts.Verify
	cfg    pipeline.Options
	loopID int
	factor int
	// destination: exactly one of these is set
	isBaseline  bool
	isHeuristic bool
}

// RunExperiments executes the paper's measurement campaign: for every
// application the baseline and heuristic configurations, plus — applying the
// pass to one loop at a time exactly as the methodology section describes —
// unroll-only and u&u for each unroll factor and unmerge-only per loop.
//
// Runs are independent (each compiles its own fresh kernel function), so
// they execute on a pool of opts.Workers goroutines (runIndexed).
func RunExperiments(opts HarnessOptions) (*Results, error) {
	return RunExperimentsCtx(context.Background(), opts)
}

// RunExperimentsCtx is RunExperiments under a context. On cancellation
// (SIGINT on a long campaign, a service deadline) the worker pool stops
// claiming jobs, in-flight compilations and simulations abort at their next
// pass/block boundary, and the completed runs are assembled and returned as
// partial Results alongside the context's error — so callers can flush what
// was measured instead of losing the whole sweep. Partial Results may lack
// baseline or heuristic records for some apps; the report writers skip
// those apps.
func RunExperimentsCtx(ctx context.Context, opts HarnessOptions) (*Results, error) {
	factors := opts.Factors
	if factors == nil {
		factors = []int{2, 4, 8}
	}
	dev, devName, input, apps, err := campaignDefaults(opts.Device, opts.DeviceName, opts.Input, opts.Apps)
	if err != nil {
		return nil, err
	}
	res := &Results{
		Device:     dev,
		DeviceName: devName,
		Input:      input,
		Factors:    factors,
		Baseline:   map[string]*RunRecord{},
		Heuristic:  map[string]*RunRecord{},
		LoopCount:  map[string]int{},
	}

	// Plan the campaign serially: per-app workload, verification oracle and
	// loop count, then the job list in the paper's order.
	var jobs []harnessJob
	for _, b := range apps {
		w := b.NewWorkload()
		w.SetInput(input)
		var ref *interp.Memory
		if opts.Verify {
			m, err := Reference(b, w)
			if err != nil {
				return nil, err
			}
			ref = m
		}
		res.LoopCount[b.Name] = LoopCount(b)

		add := func(cfg pipeline.Options, loopID, factor int) *harnessJob {
			cfg.Contain = opts.Contain
			cfg.VerifyEachPass = opts.VerifyEach
			cfg.Inject = opts.Inject
			jobs = append(jobs, harnessJob{b: b, w: w, ref: ref, cfg: cfg, loopID: loopID, factor: factor})
			return &jobs[len(jobs)-1]
		}
		add(pipeline.Options{Config: pipeline.Baseline}, -1, 0).isBaseline = true
		add(pipeline.Options{Config: pipeline.UUHeuristic}, -1, 0).isHeuristic = true
		for loop := 0; loop < res.LoopCount[b.Name]; loop++ {
			add(pipeline.Options{Config: pipeline.UnmergeOnly, LoopID: loop}, loop, 1)
			for _, u := range factors {
				add(pipeline.Options{Config: pipeline.UnrollOnly, LoopID: loop, Factor: u}, loop, u)
				add(pipeline.Options{Config: pipeline.UU, LoopID: loop, Factor: u}, loop, u)
			}
		}
	}

	// Execute on the pool. recs/errs are indexed by job so assembly below is
	// deterministic; the progress writer is the only shared sink.
	logf := progressLog(opts.Progress)
	recs := make([]*RunRecord, len(jobs))
	errs := make([]error, len(jobs))
	runIndexed(ctx, opts.Workers, len(jobs), func(worker, idx int) {
		recs[idx], errs[idx] = runJob(ctx, &jobs[idx], dev, logf, &opts, worker)
	})
	canceled := ctx.Err() != nil
	for _, err := range errs {
		if err != nil && !canceled {
			return nil, err
		}
	}

	// Assemble in campaign order. Remarks concatenate here — not as the
	// workers finish — which is what makes the assembled stream independent
	// of the worker count. Under cancellation, unclaimed and aborted jobs
	// left nil records and are skipped: the partial Results hold exactly
	// the runs that completed.
	for i := range jobs {
		j, rec := &jobs[i], recs[i]
		if rec == nil {
			continue
		}
		if rec.Stats != nil {
			res.Failures = append(res.Failures, rec.Stats.Failures...)
		}
		res.Remarks = append(res.Remarks, rec.Remarks...)
		switch {
		case j.isBaseline:
			res.Baseline[j.b.Name] = rec
		case j.isHeuristic:
			res.Heuristic[j.b.Name] = rec
		default:
			res.PerLoop = append(res.PerLoop, rec)
		}
	}
	if canceled {
		return res, fmt.Errorf("bench: campaign interrupted: %w", ctx.Err())
	}
	return res, nil
}

// runJob performs one measurement: compile (an untransformable loop is
// recorded as skipped, not an error), simulate, optionally verify against
// the oracle. Execution failures are fatal — they mean a miscompilation or
// a simulator bug, not an expected bail-out.
func runJob(ctx context.Context, j *harnessJob, dev gpusim.DeviceConfig, logf func(string, ...any), hopts *HarnessOptions, worker int) (*RunRecord, error) {
	rec := &RunRecord{App: j.b.Name, Config: j.cfg.Config, LoopID: j.loopID, Factor: j.factor,
		Worker: worker, Start: time.Now()}
	// Copy the planned options before attaching per-run sinks: jobs are
	// shared planning state and must stay immutable once the pool starts.
	cfg := j.cfg
	var rc *remark.Collector
	if hopts.Remarks {
		rc = remark.NewCollector()
		cfg.Remarks = rc
	}
	cr, err := CompileCtx(ctx, j.b, cfg)
	compiled := time.Now()
	rec.CompileWall = compiled.Sub(rec.Start)
	if cr != nil {
		rec.Stats = cr.Stats
	}
	if err != nil {
		if ctx.Err() != nil {
			// An aborted compile is cancellation, not an untransformable
			// loop: leave no record so partial assembly skips this job.
			return nil, err
		}
		rec.Skipped = err.Error()
		rec.Remarks = rc.Remarks()
		return rec, nil
	}
	rec.CompileMs = float64((cr.Stats.CompileTime - cr.Stats.VerifyTime).Microseconds()) / 1000
	rec.CodeBytes = cr.Program.CodeBytes()
	var prof *gpusim.Profile
	if hopts.Profile {
		prof = gpusim.NewProfile(cr.Program)
		rec.Profile = prof
		rec.Program = cr.Program
	}
	m, err := ExecuteCtx(ctx, cr, j.w, dev, j.ref, prof)
	rec.SimulateWall = time.Since(compiled)
	if err != nil {
		return nil, fmt.Errorf("bench %s %s loop %d u%d: %w", j.b.Name, j.cfg.Config, j.loopID, j.factor, err)
	}
	rec.Metrics = m
	rec.Millis = m.KernelMillis(dev)
	if rc.Enabled() {
		// Metrics are deterministic, so this remark is as deterministic as
		// the compile-time ones.
		rc.Emit(remark.Remark{Kind: remark.Analysis, Pass: "gpusim", Name: "SimMetrics",
			Function: cr.Func.Name, Args: []remark.Arg{
				remark.Int("Cycles", m.Cycles),
				remark.Int("WarpInstrs", m.WarpInstrs),
				remark.Int("ThreadInstrs", m.ThreadInstrs),
				remark.Float("WarpExecutionEfficiency", m.WarpExecutionEfficiency(dev)),
				remark.Int("GldTransactions", m.GldTransactions),
				remark.Int("GstTransactions", m.GstTransactions),
				remark.Int("StallInstFetch", m.StallInstFetch),
				remark.Int("DepStallCycles", m.DepStallCycles),
			}})
	}
	rec.Remarks = rc.Remarks()
	logf("%-16s %-12s loop=%-3d u=%-2d %10.4f ms  code=%6d B  compile=%7.2f ms",
		j.b.Name, j.cfg.Config, j.loopID, j.factor, rec.Millis, rec.CodeBytes, rec.CompileMs)
	return rec, nil
}

// Best returns the best (highest-speedup) per-loop record for the app with
// the given config and factor (0 = any factor), or nil.
func (r *Results) Best(app string, cfg pipeline.Config, factor int) *RunRecord {
	base := r.Baseline[app]
	var best *RunRecord
	for _, rec := range r.PerLoop {
		if rec.App != app || rec.Config != cfg || rec.Skipped != "" {
			continue
		}
		if factor != 0 && rec.Factor != factor {
			continue
		}
		if best == nil || rec.Speedup(base) > best.Speedup(base) {
			best = rec
		}
	}
	return best
}

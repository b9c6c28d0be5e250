package bench

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"uu/internal/analysis"
	"uu/internal/gpusim"
	"uu/internal/harden"
	"uu/internal/interp"
	"uu/internal/ir"
	"uu/internal/pipeline"
	"uu/internal/remark"
)

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
	// Device is the gpusim.ParseDevice spec every run simulates on (a
	// registry name, possibly with overrides); empty means "V100".
	Device string
	// Input selects the workload input mode for every run of the sweep;
	// empty means InputCoherent (the paper's setup).
	Input InputMode
	// Progress receives one line per completed run when non-nil. Lines are
	// written atomically but, with Workers > 1, in completion order rather
	// than campaign order.
	Progress io.Writer
	// Workers caps the number of concurrent measurement goroutines, the
	// clocked runs whose wall clock fills CompileMs and Figure 6c; 0 means
	// GOMAXPROCS. Planning (each app's workload, oracle and loop count) is
	// not clocked: it always uses every core and ends before the first run
	// starts. Results are identical and identically ordered regardless of
	// the worker count — every run is an independent compile+simulate on
	// its own function, so only wall clock changes.
	Workers int
	// Contain runs every compilation under the crash-containment guard: a
	// panicking pass is rolled back and skipped, the failure is recorded on
	// the run and aggregated into Results.Failures, and the campaign keeps
	// going instead of aborting. The healthy path is byte-identical with or
	// without it.
	Contain bool
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
// unset and parses the device spec: the V100 device when none is named, the
// coherent input mode, and the whole suite when no application subset is
// named. It returns the device with its display name.
func campaignDefaults(device string, input InputMode, appNames []string) (gpusim.DeviceConfig, string, InputMode, []*Benchmark, error) {
	if device == "" {
		device = "V100"
	}
	dev, deviceName, err := gpusim.ParseDevice(device)
	if err != nil {
		return dev, deviceName, input, nil, err
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
// measurement: the run, planned in full, and the cell it fills. Jobs are
// enumerated in campaign order up front; workers pick them up in that order
// and write results by index, so the assembled Results are identical
// regardless of concurrency.
type harnessJob struct {
	Job
	loopID int
	factor int
	// destination: exactly one of these is set
	isBaseline  bool
	isHeuristic bool
}

// appPlan is what a campaign derives for one application before its first
// cell: the workload every cell of the app runs, the oracle they are checked
// against (nil unless HarnessOptions.Verify) and the app's loop count.
type appPlan struct {
	w     *Workload
	ref   *interp.Memory
	loops int
	err   error
}

// testHookReference, when set by a test, is called by planApp before it
// interprets an app's oracle.
var testHookReference func(b *Benchmark)

// planApp plans one application. A kernel the frontend rejects is an error
// whether or not the campaign verifies.
func planApp(b *Benchmark, input InputMode, verify bool) appPlan {
	p := appPlan{w: b.NewWorkload()}
	p.w.SetInput(input)
	f, err := b.CompileKernel()
	if err != nil {
		return appPlan{err: err}
	}
	p.loops = len(pipeline.Canonicalize(f).Loops)
	ir.Release(f)
	if verify {
		if testHookReference != nil {
			testHookReference(b)
		}
		p.ref, p.err = Reference(b, p.w)
	}
	return p
}

// RunExperiments executes the paper's measurement campaign: for every
// application the baseline and heuristic configurations, plus — applying the
// pass to one loop at a time exactly as the methodology section describes —
// unroll-only and u&u for each unroll factor and unmerge-only per loop.
//
// Runs are independent (each compiles its own fresh kernel function), so
// they execute on a pool of opts.Workers goroutines (runIndexed), after the
// apps have been planned on a pool of GOMAXPROCS.
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
// those apps. A context that ends while the apps are being planned stops
// the planning pool the same way and returns Results with no records.
func RunExperimentsCtx(ctx context.Context, opts HarnessOptions) (*Results, error) {
	factors := opts.Factors
	if factors == nil {
		factors = []int{2, 4, 8}
	}
	dev, devName, input, apps, err := campaignDefaults(opts.Device, opts.Input, opts.Apps)
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

	// Plan every app on every core: the oracles are most of what a verified
	// campaign waits for before its first cell, and planning is not clocked,
	// so Workers does not cap it. Plans are written by app index and checked
	// in campaign order, so the error returned is the first app's, whatever
	// finished first. A context that ends mid-planning leaves apps unplanned;
	// no job is built from them.
	plans := make([]appPlan, len(apps))
	runIndexed(ctx, 0, len(apps), func(_, i int) {
		plans[i] = planApp(apps[i], input, opts.Verify)
	})
	if ctx.Err() != nil {
		return res, fmt.Errorf("bench: campaign interrupted: %w", ctx.Err())
	}
	for _, p := range plans {
		if p.err != nil {
			return nil, p.err
		}
	}

	// Then the job list, serially in the paper's order.
	var jobs []harnessJob
	for i, b := range apps {
		w, ref := plans[i].w, plans[i].ref
		res.LoopCount[b.Name] = plans[i].loops

		add := func(cfg pipeline.Options, loopID, factor int) *harnessJob {
			cfg.Contain = opts.Contain
			cfg.Inject = opts.Inject
			jobs = append(jobs, harnessJob{Job: Job{Name: b.Name, Kernel: b.CompileKernel, Workload: w,
				Options: cfg, Device: dev, Want: ref, Profile: opts.Profile}, loopID: loopID, factor: factor})
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
		recs[idx], errs[idx] = runJob(ctx, &jobs[idx], opts.Remarks, logf, worker)
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
			res.Baseline[j.Name] = rec
		case j.isHeuristic:
			res.Heuristic[j.Name] = rec
		default:
			res.PerLoop = append(res.PerLoop, rec)
		}
	}
	if canceled {
		return res, fmt.Errorf("bench: campaign interrupted: %w", ctx.Err())
	}
	return res, nil
}

// runJob performs one measurement (Run): an untransformable loop is recorded
// as skipped, not an error. Execution failures are fatal — they mean a
// miscompilation or a simulator bug, not an expected bail-out.
func runJob(ctx context.Context, j *harnessJob, remarks bool, logf func(string, ...any), worker int) (*RunRecord, error) {
	// Copy the planned run before attaching per-run sinks: jobs are shared
	// planning state and must stay immutable once the pool starts.
	job := j.Job
	var rc *remark.Collector
	if remarks {
		rc = remark.NewCollector()
		job.Options.Remarks = rc
	}
	rec, err := Run(ctx, job)
	rec.App, rec.LoopID, rec.Factor, rec.Worker = j.Name, j.loopID, j.factor, worker
	switch {
	case err == nil:
	case rec.Program != nil:
		return nil, fmt.Errorf("bench %s %s loop %d u%d: %w", j.Name, rec.Config, j.loopID, j.factor, err)
	case ctx.Err() != nil:
		// An aborted compile is cancellation, not an untransformable
		// loop: leave no record so partial assembly skips this job.
		return nil, err
	default:
		rec.Skipped = err.Error()
		return rec, nil
	}
	if rc.Enabled() {
		// Metrics are deterministic, so this remark is as deterministic as
		// the compile-time ones.
		m := rec.Metrics
		rc.Emit(remark.Remark{Kind: remark.Analysis, Pass: "gpusim", Name: "SimMetrics",
			Function: rec.Stats.Function, Args: []remark.Arg{
				remark.Int("Cycles", m.Cycles),
				remark.Int("WarpInstrs", m.WarpInstrs),
				remark.Int("ThreadInstrs", m.ThreadInstrs),
				remark.Float("WarpExecutionEfficiency", m.WarpExecutionEfficiency(j.Device)),
				remark.Int("GldTransactions", m.GldTransactions),
				remark.Int("GstTransactions", m.GstTransactions),
				remark.Int("StallInstFetch", m.StallInstFetch),
				remark.Int("DepStallCycles", m.DepStallCycles),
			}})
		rec.Remarks = rc.Remarks()
	}
	logf("%-16s %-12s loop=%-3d u=%-2d %10.4f ms  code=%6d B  compile=%7.2f ms",
		j.Name, rec.Config, j.loopID, j.factor, rec.Millis, rec.CodeBytes, rec.CompileMs)
	if rec.Profile == nil {
		// Nothing reads the program from here on; a profiled cell keeps it
		// for the report that joins the two after the campaign.
		rec.Release()
	}
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

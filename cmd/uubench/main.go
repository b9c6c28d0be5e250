// Command uubench regenerates the paper's evaluation artifacts: Table I and
// Figures 6a, 6b, 6c, 7, 8a, 8b (as text tables), plus the Section V
// counter reports for the in-depth-analysis applications.
//
// Usage:
//
//	uubench -all -out results/
//	uubench -table1
//	uubench -fig6a -fig6b -fig6c -apps xsbench,rainflow
//	uubench -fig7 -fig8 -verify
//	uubench -pgo -apps xsbench,rainflow,complex,bezier-surface -out results/
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"uu/internal/bench"
	"uu/internal/core"
	"uu/internal/gpusim"
	"uu/internal/pipeline"
	"uu/internal/profile"
	"uu/internal/remark"
)

func main() {
	var (
		all        = flag.Bool("all", false, "produce every table and figure")
		table1     = flag.Bool("table1", false, "produce Table I")
		fig6a      = flag.Bool("fig6a", false, "produce Figure 6a (speedup)")
		fig6b      = flag.Bool("fig6b", false, "produce Figure 6b (code size)")
		fig6c      = flag.Bool("fig6c", false, "produce Figure 6c (compile time)")
		fig7       = flag.Bool("fig7", false, "produce Figure 7 (uu vs unroll vs unmerge)")
		fig8       = flag.Bool("fig8", false, "produce Figures 8a/8b (scatter data)")
		counters   = flag.Bool("counters", false, "produce the Section V counter reports")
		ablations  = flag.Bool("ablations", false, "produce the design-choice ablation tables")
		device     = flag.String("device", "V100", "device model for the campaign: a registry name with optional overrides, e.g. V100, MinSPPC, Vortex:warpsize=8 (see gpusim.ParseDevice)")
		deviceMx   = flag.String("device-matrix", "", "run the campaign once per device and produce the cross-device robustness report (device-matrix.txt): comma-separated device specs, or 'all' for the full registry")
		inputMode  = flag.String("input", "coherent", "input mode for the single-device campaign: coherent or noise")
		inputsCSV  = flag.String("inputs", "", "input modes swept by -device-matrix: comma-separated, or 'all' (default: coherent only)")
		appsCSV    = flag.String("apps", "", "comma-separated subset of applications (default: all 16)")
		factors    = flag.String("factors", "2,4,8", "unroll factors to sweep")
		verify     = flag.Bool("verify", false, "validate every run against the reference interpreter")
		outDir     = flag.String("out", "", "write artifacts into this directory instead of stdout")
		quiet      = flag.Bool("q", false, "suppress per-run progress")
		workers    = flag.Int("workers", 0, "concurrent measurement goroutines (0 = GOMAXPROCS)")
		contain    = flag.Bool("contain", false, "run every compilation under the crash-containment guard: a crashing pass is rolled back and skipped instead of aborting the campaign")
		verifyEach = flag.Bool("verify-each", false, "run the IR verifier after every pass (a rejected pass counts as a contained failure with -contain)")
		remarksStr = flag.String("remarks", "", "collect optimization remarks and write them as remarks.yaml: all|passed|missed|analysis (comma-separable); deterministic across -workers counts")
		tracePath  = flag.String("trace", "", "write a Chrome trace_event JSON of the whole campaign (compiles, passes, simulations) to this file")
		profileOn  = flag.Bool("profile", false, "collect per-PC hotspot profiles and write hotspots.txt (per-loop/per-line tables plus the heuristic predicted-vs-measured join) and per-app profile-<app>.folded / profile-<app>.pb.gz; deterministic across -workers counts")
		pgoOn      = flag.Bool("pgo", false, "run the profile-guided campaign: iterate compile→simulate→recompile, feeding measured per-loop signals back into the heuristic as overrides until the predicted-vs-measured table is stable; writes pgo.txt and exits 1 if any MISPREDICT survives the final round")
		pgoRounds  = flag.Int("pgo-rounds", 4, "maximum PGO feedback rounds")
		pgoSeed    = flag.String("pgo-seed", "", "seed per-app PGO overrides, e.g. 'complex=L10:force+cap=8;xsbench=L11:deny' (the recovery case study seeds complex's u=8 collapse)")
		selective  = flag.Bool("selective", false, "run uu-heuristic in selective-unmerge mode (only benefit-predicted merge blocks are duplicated) for the campaign and PGO runs")
	)
	flag.Parse()
	if *all {
		*table1, *fig6a, *fig6b, *fig6c, *fig7, *fig8, *counters, *ablations = true, true, true, true, true, true, true, true
	}
	if !(*table1 || *fig6a || *fig6b || *fig6c || *fig7 || *fig8 || *counters || *ablations || *profileOn || *pgoOn || *deviceMx != "") {
		flag.Usage()
		os.Exit(2)
	}

	devCfg, devName, err := gpusim.ParseDevice(*device)
	if err != nil {
		fatal(err)
	}
	input, err := bench.ParseInputMode(*inputMode)
	if err != nil {
		fatal(err)
	}
	opts := bench.HarnessOptions{
		Verify:     *verify,
		Device:     &devCfg,
		DeviceName: devName,
		Input:      input,
		Workers:    *workers,
		Contain:    *contain,
		VerifyEach: *verifyEach,
		Profile:    *profileOn,
		Heuristic:  core.HeuristicParams{Selective: *selective},
	}
	var remarkKinds map[remark.Kind]bool
	if *remarksStr != "" {
		kinds, err := remark.ParseKinds(*remarksStr)
		if err != nil {
			fatal(err)
		}
		remarkKinds = kinds
		opts.Remarks = true
	}
	var trace *remark.Trace // rendered from each sweep's Results once it has run
	if *tracePath != "" {
		trace = remark.NewTrace()
	}
	if *appsCSV != "" {
		opts.Apps = strings.Split(*appsCSV, ",")
	}
	for _, fs := range strings.Split(*factors, ",") {
		u, err := strconv.Atoi(strings.TrimSpace(fs))
		if err != nil || u < 1 {
			fatal(fmt.Errorf("bad factor %q", fs))
		}
		opts.Factors = append(opts.Factors, u)
	}
	if !*quiet {
		opts.Progress = os.Stderr
	}

	// SIGINT/SIGTERM cancels the campaign context: workers stop at the next
	// pass or warp-block boundary and the completed runs are still written
	// out below as partial artifacts. A second signal kills the process.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	interrupted := false

	var res *bench.Results
	if *table1 || *fig6a || *fig6b || *fig6c || *fig7 || *fig8 || *counters || *profileOn {
		var err error
		res, err = bench.RunExperimentsCtx(ctx, opts)
		if err != nil {
			if res == nil || ctx.Err() == nil {
				fatal(err)
			}
			interrupted = true
			fmt.Fprintf(os.Stderr, "uubench: %v; flushing partial results\n", err)
		}
		fmt.Fprintf(os.Stderr, "uubench: campaign device=%s input=%s\n", res.DeviceName, res.Input)
		for _, pf := range res.Failures {
			fmt.Fprintf(os.Stderr, "uubench: contained pass failure: %s\n", pf.String())
		}
		if trace != nil {
			bench.TraceCampaign(trace, res)
		}
	}

	sink := func(name string) (*os.File, func()) {
		if *outDir == "" {
			fmt.Printf("\n===== %s =====\n", name)
			return os.Stdout, func() {}
		}
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatal(err)
		}
		f, err := os.Create(filepath.Join(*outDir, name))
		if err != nil {
			fatal(err)
		}
		return f, func() { f.Close() }
	}

	if *table1 {
		w, done := sink("table1.txt")
		bench.WriteTable1(w, res)
		done()
	}
	if *fig6a {
		w, done := sink("fig6a.txt")
		bench.WriteFig6a(w, res)
		done()
	}
	if *fig6b {
		w, done := sink("fig6b.txt")
		bench.WriteFig6b(w, res)
		done()
	}
	if *fig6c {
		w, done := sink("fig6c.txt")
		bench.WriteFig6c(w, res)
		done()
	}
	if *fig7 {
		w, done := sink("fig7.txt")
		bench.WriteFig7(w, res)
		done()
	}
	if *fig8 {
		w, done := sink("fig8.txt")
		bench.WriteFig8(w, res)
		done()
	}
	if *ablations {
		w, done := sink("ablations.txt")
		for _, spec := range []struct {
			app          string
			loop, factor int
		}{{"bezier-surface", 1, 2}, {"rainflow", 0, 4}, {"xsbench", 0, 2}, {"complex", 0, 4}} {
			rows, err := bench.RunAblations(spec.app, spec.loop, spec.factor, devCfg)
			if err != nil {
				fatal(err)
			}
			bench.WriteAblations(w, spec.app, spec.loop, spec.factor, rows)
			fmt.Fprintln(w)
		}
		done()
	}
	if *counters {
		w, done := sink("counters.txt")
		for _, spec := range []struct {
			app    string
			factor int
		}{{"xsbench", 2}, {"xsbench", 8}, {"rainflow", 4}, {"complex", 8}, {"bezier-surface", 2}} {
			if res.Baseline[spec.app] == nil {
				continue
			}
			if rec := res.Best(spec.app, pipeline.UU, spec.factor); rec != nil {
				bench.WriteCounterReport(w, res, spec.app, rec)
				fmt.Fprintln(w)
			}
		}
		done()
	}

	if *deviceMx != "" {
		mxOpts := bench.MatrixOptions{Harness: opts}
		if !strings.EqualFold(*deviceMx, "all") {
			mxOpts.Devices = splitCSV(*deviceMx)
		}
		switch {
		case strings.EqualFold(*inputsCSV, "all"):
			mxOpts.Inputs = bench.InputModes()
		case *inputsCSV != "":
			for _, s := range splitCSV(*inputsCSV) {
				in, err := bench.ParseInputMode(s)
				if err != nil {
					fatal(err)
				}
				mxOpts.Inputs = append(mxOpts.Inputs, in)
			}
		}
		mx, err := bench.RunMatrixCtx(ctx, mxOpts)
		if err != nil {
			if mx == nil || ctx.Err() == nil {
				fatal(err)
			}
			interrupted = true
			fmt.Fprintf(os.Stderr, "uubench: %v; flushing partial results\n", err)
		}
		w, done := sink("device-matrix.txt")
		bench.WriteDeviceMatrix(w, mx)
		done()
		if trace != nil {
			for _, sw := range mx.Sweeps {
				bench.TraceCampaign(trace, sw.Results)
			}
		}
	}

	mispredicts := 0
	if *pgoOn {
		seed, err := parsePGOSeed(*pgoSeed)
		if err != nil {
			fatal(err)
		}
		popts := bench.PGOOptions{
			Apps:       opts.Apps,
			MaxRounds:  *pgoRounds,
			Device:     &devCfg,
			DeviceName: devName,
			Input:      input,
			Workers:    *workers,
			Heuristic:  opts.Heuristic,
			Seed:       seed,
		}
		if !*quiet {
			popts.Progress = os.Stderr
		}
		pres, err := bench.RunPGOCtx(ctx, popts)
		if err != nil {
			if pres == nil || ctx.Err() == nil {
				fatal(err)
			}
			interrupted = true
			fmt.Fprintf(os.Stderr, "uubench: %v; flushing partial results\n", err)
		}
		w, done := sink("pgo.txt")
		if err := bench.WritePGOReport(w, pres); err != nil {
			fatal(err)
		}
		done()
		mispredicts = pres.Mispredicts()
		if !pres.Converged {
			fmt.Fprintf(os.Stderr, "uubench: pgo did not converge within %d rounds\n", *pgoRounds)
		}
		if mispredicts > 0 {
			fmt.Fprintf(os.Stderr, "uubench: pgo finished with %d surviving MISPREDICT verdict(s)\n", mispredicts)
		}
	}

	if *profileOn && res != nil {
		w, done := sink("hotspots.txt")
		if err := bench.WriteProfileReport(w, res); err != nil {
			fatal(err)
		}
		done()
		writeProfileArtifacts(res, *outDir, sink)
	}
	if opts.Remarks && res != nil {
		w, done := sink("remarks.yaml")
		if err := remark.WriteYAML(w, res.Remarks, remarkKinds); err != nil {
			fatal(err)
		}
		done()
	}
	if trace != nil {
		if err := trace.WriteFile(*tracePath); err != nil {
			fatal(err)
		}
	}

	// Artifacts produced under contained failures describe degraded
	// pipelines (the crashing passes were skipped); flag that to callers.
	if res != nil && len(res.Failures) > 0 {
		fmt.Fprintf(os.Stderr, "uubench: %d pass invocations were contained; results reflect skipped passes\n", len(res.Failures))
		if !interrupted {
			os.Exit(1)
		}
	}
	if interrupted {
		os.Exit(130)
	}
	if mispredicts > 0 {
		os.Exit(1)
	}
}

// parsePGOSeed parses the -pgo-seed syntax: semicolon-separated
// app=<override-set> items, each override set in core.ParseOverrides form.
func parsePGOSeed(s string) (map[string]map[int32]core.LoopOverride, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	out := map[string]map[int32]core.LoopOverride{}
	for _, item := range strings.Split(s, ";") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		app, spec, ok := strings.Cut(item, "=")
		if !ok {
			return nil, fmt.Errorf("bad -pgo-seed item %q (want app=L<line>:<directive>)", item)
		}
		ov, err := core.ParseOverrides(spec)
		if err != nil {
			return nil, err
		}
		out[strings.TrimSpace(app)] = ov
	}
	return out, nil
}

// writeProfileArtifacts writes the per-app heuristic flamegraph inputs:
// profile-<app>.folded through the sink and, when -out is set, the binary
// profile-<app>.pb.gz (binary artifacts make no sense on stdout and are
// skipped with a note).
func writeProfileArtifacts(res *bench.Results, outDir string, sink func(string) (*os.File, func())) {
	apps := make([]string, 0, len(res.Heuristic))
	for app := range res.Heuristic {
		apps = append(apps, app)
	}
	sort.Strings(apps)
	for _, app := range apps {
		rec := res.Heuristic[app]
		if rec == nil || rec.Profile == nil {
			continue
		}
		rep := profile.Build(rec.Program, rec.Profile)
		w, done := sink("profile-" + app + ".folded")
		if err := profile.WriteFolded(w, rep); err != nil {
			fatal(err)
		}
		done()
		if outDir == "" {
			fmt.Fprintf(os.Stderr, "uubench: profile-%s.pb.gz requires -out; skipped\n", app)
			continue
		}
		f, err := os.Create(filepath.Join(outDir, "profile-"+app+".pb.gz"))
		if err != nil {
			fatal(err)
		}
		if err := profile.WritePprof(f, rep); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
}

// splitCSV splits a comma-separated flag value, trimming whitespace and
// dropping empty items.
func splitCSV(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "uubench:", err)
	os.Exit(1)
}

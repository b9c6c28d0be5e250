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
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"

	"uu/cmd/internal/cli"
	"uu/internal/bench"
	"uu/internal/core"
	"uu/internal/gpusim"
	"uu/internal/pipeline"
	"uu/internal/profile"
	"uu/internal/remark"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// artifact is one report uubench can produce. The table below is the only
// list of them: the flags that select one, what -all covers, the "nothing
// selected" usage check and whether the single-device campaign has to run
// are all read off it.
type artifact struct {
	flag, file string
	usage      string // of the boolean flag; empty for -device-matrix, whose flag carries the device list
	all        bool   // selected by -all
	campaign   bool   // rendered from the single-device sweep, so selecting it runs one
	write      func(s *session, w io.Writer) error
}

// artifacts is in output order.
var artifacts = []artifact{
	{"table1", "table1.txt", "produce Table I", true, true, fromResults(bench.WriteTable1)},
	{"fig6a", "fig6a.txt", "produce Figure 6a (speedup)", true, true, fromResults(bench.WriteFig6a)},
	{"fig6b", "fig6b.txt", "produce Figure 6b (code size)", true, true, fromResults(bench.WriteFig6b)},
	{"fig6c", "fig6c.txt", "produce Figure 6c (compile time)", true, true, fromResults(bench.WriteFig6c)},
	{"fig7", "fig7.txt", "produce Figure 7 (uu vs unroll vs unmerge)", true, true, fromResults(bench.WriteFig7)},
	{"fig8", "fig8.txt", "produce Figures 8a/8b (scatter data)", true, true, fromResults(bench.WriteFig8)},
	{"ablations", "ablations.txt", "produce the design-choice ablation tables", true, false, (*session).writeAblations},
	{"counters", "counters.txt", "produce the Section V counter reports", true, true, (*session).writeCounters},
	{"device-matrix", "device-matrix.txt", "", false, false, (*session).writeMatrix},
	{"pgo", "pgo.txt", "run the profile-guided campaign: iterate compile→simulate→recompile, feeding measured per-loop signals back into the heuristic as overrides until the predicted-vs-measured table is stable; writes pgo.txt and exits 1 if any MISPREDICT survives the final round", false, false, (*session).writePGO},
	{"profile", "hotspots.txt", "collect per-PC hotspot profiles and write hotspots.txt (per-loop/per-line tables plus the heuristic predicted-vs-measured join) and per-app profile-<app>.folded / profile-<app>.pb.gz; deterministic across -workers counts", false, true, (*session).writeHotspots},
}

func fromResults(write func(io.Writer, *bench.Results)) func(*session, io.Writer) error {
	return func(s *session, w io.Writer) error { write(w, s.res); return nil }
}

// options is uubench's parsed command line, artifact selection aside.
type options struct {
	all      bool
	target   cli.Target
	deviceMx string
	inputs   string
	apps     string
	factors  string
	verify   bool
	out      string
	quiet    bool
	workers  int
	contain  bool
	remarks  string
	trace    string
	pgoSeed  string
}

func flags(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("uubench", flag.ContinueOnError)
	fs.BoolVar(&o.all, "all", false, "produce every table and figure")
	for _, a := range artifacts {
		if a.usage != "" {
			fs.Bool(a.flag, false, a.usage)
		}
	}
	o.target.Register(fs)
	fs.StringVar(&o.deviceMx, "device-matrix", "", "run the campaign once per device and produce the cross-device robustness report (device-matrix.txt): comma-separated device specs, or 'all' for the full registry")
	fs.StringVar(&o.inputs, "inputs", "", "input modes swept by -device-matrix: comma-separated, or 'all' (default: coherent only)")
	fs.StringVar(&o.apps, "apps", "", "comma-separated subset of applications (default: all 16)")
	fs.StringVar(&o.factors, "factors", "2,4,8", "unroll factors to sweep")
	fs.BoolVar(&o.verify, "verify", false, "validate every run against the reference interpreter")
	fs.StringVar(&o.out, "out", "", "write artifacts into this directory instead of stdout")
	fs.BoolVar(&o.quiet, "q", false, "suppress per-run progress")
	fs.IntVar(&o.workers, "workers", 0, "concurrent measurement goroutines (0 = GOMAXPROCS)")
	fs.BoolVar(&o.contain, "contain", false, "run every compilation under the crash-containment guard: a crashing pass is rolled back and skipped instead of aborting the campaign")
	fs.StringVar(&o.remarks, "remarks", "", "collect optimization remarks and write them as remarks.yaml: all|passed|missed|analysis (comma-separable); deterministic across -workers counts")
	fs.StringVar(&o.trace, "trace", "", "write a Chrome trace_event JSON of the whole campaign (compiles, passes, simulations) to this file")
	fs.StringVar(&o.pgoSeed, "pgo-seed", "", "seed per-app PGO overrides, e.g. 'complex=L10:force+cap=8;xsbench=L11:deny' (the recovery case study seeds complex's u=8 collapse)")
	return fs
}

// session is one uubench invocation: what the flags resolved to, and what
// the artifact writers share and leave behind.
type session struct {
	ctx            context.Context
	o              *options
	stdout, stderr io.Writer
	opts           bench.HarnessOptions
	dev            gpusim.DeviceConfig // what opts.Device names; the ablations run on it
	res            *bench.Results      // the single-device sweep; nil when no selected artifact reads it
	trace          *remark.Trace       // rendered from each sweep's Results once it has run
	interrupted    bool
	mispredicts    int
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flags(&o)
	if code, ok := cli.Parse(fs, args, stderr); !ok {
		return code
	}
	var selected []artifact
	campaign := false
	for _, a := range artifacts {
		// A selected artifact's flag holds a non-zero value: true, or
		// -device-matrix's device list.
		if v := fs.Lookup(a.flag).Value.String(); (v != "" && v != "false") || (o.all && a.all) {
			selected = append(selected, a)
			campaign = campaign || a.campaign
		}
	}
	if len(selected) == 0 {
		fs.Usage()
		return 2
	}
	// SIGINT/SIGTERM cancels the campaign context: workers stop at the next
	// pass or warp-block boundary and the completed runs are still written
	// out as partial artifacts. A second signal kills the process.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	s := &session{ctx: ctx, o: &o, stdout: stdout, stderr: stderr}
	code, err := s.produce(selected, campaign)
	return cli.Exit("uubench", stderr, code, err)
}

// produce runs what the selected artifacts need and writes them.
func (s *session) produce(selected []artifact, campaign bool) (int, error) {
	o := s.o
	dev, devName, input, err := o.target.Resolve()
	if err != nil {
		return 0, err
	}
	s.dev = dev
	kinds, remarks, err := cli.Remarks(o.remarks)
	if err != nil {
		return 0, err
	}
	s.opts = bench.HarnessOptions{
		Verify:  o.verify,
		Device:  devName,
		Input:   input,
		Workers: o.workers,
		Contain: o.contain,
		Remarks: remarks != nil,
		Apps:    cli.SplitCSV(o.apps),
	}
	for _, a := range selected {
		s.opts.Profile = s.opts.Profile || a.flag == "profile"
	}
	for _, fs := range cli.SplitCSV(o.factors) {
		u, err := strconv.Atoi(fs)
		if err != nil || u < 1 {
			return 0, fmt.Errorf("bad factor %q", fs)
		}
		s.opts.Factors = append(s.opts.Factors, u)
	}
	if !o.quiet {
		s.opts.Progress = s.stderr
	}
	s.trace = cli.StartTrace(o.trace)

	if campaign {
		s.res, err = bench.RunExperimentsCtx(s.ctx, s.opts)
		if err = s.partial(err, s.res != nil); err != nil {
			return 0, err
		}
		fmt.Fprintf(s.stderr, "uubench: campaign device=%s input=%s\n", s.res.DeviceName, s.res.Input)
		for _, pf := range s.res.Failures {
			fmt.Fprintf(s.stderr, "uubench: contained pass failure: %s\n", pf.String())
		}
		bench.TraceCampaign(s.trace, s.res)
	}
	for _, a := range selected {
		if err := s.emit(a.file, func(w io.Writer) error { return a.write(s, w) }); err != nil {
			return 0, err
		}
	}
	if s.res != nil {
		if s.opts.Profile {
			if err := s.writeProfilePairs(); err != nil {
				return 0, err
			}
		}
		if remarks != nil {
			if err := s.emit("remarks.yaml", func(w io.Writer) error { return remark.WriteYAML(w, s.res.Remarks, kinds) }); err != nil {
				return 0, err
			}
		}
	}
	if err := cli.WriteTrace(s.trace, o.trace); err != nil {
		return 0, err
	}

	// Artifacts produced under contained failures describe degraded
	// pipelines (the crashing passes were skipped); flag that to callers.
	contained := s.res != nil && len(s.res.Failures) > 0
	if contained {
		fmt.Fprintf(s.stderr, "uubench: %d pass invocations were contained; results reflect skipped passes\n", len(s.res.Failures))
	}
	switch {
	case s.interrupted:
		return 130, nil
	case contained || s.mispredicts > 0:
		return 1, nil
	}
	return 0, nil
}

// partial sorts out a campaign driver's error: with results in hand and the
// context canceled it was an interruption — noted, and the partial results
// are still written — anything else is returned as fatal.
func (s *session) partial(err error, haveResults bool) error {
	if err == nil || !haveResults || s.ctx.Err() == nil {
		return err
	}
	s.interrupted = true
	fmt.Fprintf(s.stderr, "uubench: %v; flushing partial results\n", err)
	return nil
}

// emit renders one artifact and, once that has succeeded, writes it: into
// -out/<name>, or to stdout under a banner. A writer that fails — several
// run a campaign of their own first — leaves neither a banner nor a
// truncated file behind.
func (s *session) emit(name string, render func(io.Writer) error) error {
	var buf bytes.Buffer
	if err := render(&buf); err != nil {
		return err
	}
	if s.o.out == "" {
		_, err := fmt.Fprintf(s.stdout, "\n===== %s =====\n%s", name, buf.Bytes())
		return err
	}
	return cli.WriteFile(filepath.Join(s.o.out, name), func(w io.Writer) error {
		_, err := w.Write(buf.Bytes())
		return err
	})
}

func (s *session) writeAblations(w io.Writer) error {
	for _, spec := range []struct {
		app          string
		loop, factor int
	}{{"bezier-surface", 1, 2}, {"rainflow", 0, 4}, {"xsbench", 0, 2}, {"complex", 0, 4}} {
		rows, err := bench.RunAblations(spec.app, spec.loop, spec.factor, s.dev)
		if err != nil {
			return err
		}
		bench.WriteAblations(w, spec.app, spec.loop, spec.factor, rows)
		fmt.Fprintln(w)
	}
	return nil
}

func (s *session) writeCounters(w io.Writer) error {
	for _, spec := range []struct {
		app    string
		factor int
	}{{"xsbench", 2}, {"xsbench", 8}, {"rainflow", 4}, {"complex", 8}, {"bezier-surface", 2}} {
		if s.res.Baseline[spec.app] == nil {
			continue
		}
		if rec := s.res.Best(spec.app, pipeline.UU, spec.factor); rec != nil {
			bench.WriteCounterReport(w, s.res, spec.app, rec)
			fmt.Fprintln(w)
		}
	}
	return nil
}

func (s *session) writeMatrix(w io.Writer) error {
	mxOpts := bench.MatrixOptions{Harness: s.opts}
	if !strings.EqualFold(s.o.deviceMx, "all") {
		mxOpts.Devices = cli.SplitCSV(s.o.deviceMx)
	}
	if strings.EqualFold(s.o.inputs, "all") {
		mxOpts.Inputs = bench.InputModes()
	} else {
		for _, name := range cli.SplitCSV(s.o.inputs) {
			in, err := bench.ParseInputMode(name)
			if err != nil {
				return err
			}
			mxOpts.Inputs = append(mxOpts.Inputs, in)
		}
	}
	mx, err := bench.RunMatrixCtx(s.ctx, mxOpts)
	if err = s.partial(err, mx != nil); err != nil {
		return err
	}
	bench.WriteDeviceMatrix(w, mx)
	for _, sw := range mx.Sweeps {
		bench.TraceCampaign(s.trace, sw.Results)
	}
	return nil
}

func (s *session) writePGO(w io.Writer) error {
	seed, err := parsePGOSeed(s.o.pgoSeed)
	if err != nil {
		return err
	}
	pres, err := bench.RunPGOCtx(s.ctx, bench.PGOOptions{
		Apps:     s.opts.Apps,
		Device:   s.opts.Device,
		Input:    s.opts.Input,
		Workers:  s.opts.Workers,
		Seed:     seed,
		Progress: s.opts.Progress,
	})
	if err = s.partial(err, pres != nil); err != nil {
		return err
	}
	if err := bench.WritePGOReport(w, pres); err != nil {
		return err
	}
	if s.mispredicts = pres.Mispredicts(); !pres.Converged {
		fmt.Fprintf(s.stderr, "uubench: pgo did not converge within %d rounds\n", len(pres.Rounds))
	}
	if s.mispredicts > 0 {
		fmt.Fprintf(s.stderr, "uubench: pgo finished with %d surviving MISPREDICT verdict(s)\n", s.mispredicts)
	}
	return nil
}

func (s *session) writeHotspots(w io.Writer) error { return bench.WriteProfileReport(w, s.res) }

// writeProfilePairs writes the per-app heuristic flamegraph inputs,
// profile-<app>.folded and profile-<app>.pb.gz. Without -out the folded
// stacks go to stdout like every artifact and the binary one is skipped
// with a note.
func (s *session) writeProfilePairs() error {
	for _, b := range bench.Suite { // suite order, which is name order
		rec := s.res.Heuristic[b.Name]
		if rec == nil || rec.Profile == nil {
			continue
		}
		rep := profile.Build(rec.Program, rec.Profile)
		prefix := "profile-" + b.Name
		if s.o.out != "" {
			if err := cli.WriteProfilePair(filepath.Join(s.o.out, prefix), rep); err != nil {
				return err
			}
			continue
		}
		if err := s.emit(prefix+".folded", func(w io.Writer) error { return profile.WriteFolded(w, rep) }); err != nil {
			return err
		}
		fmt.Fprintf(s.stderr, "uubench: %s.pb.gz requires -out; skipped\n", prefix)
	}
	return nil
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

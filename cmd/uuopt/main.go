// Command uuopt compiles a MiniCU kernel (or textual IR) through one of the
// paper's five pipeline configurations and prints the result as IR, VPTX, or
// a Graphviz CFG.
//
// Usage:
//
//	uuopt -src kernel.cu [-config uu] [-loop 0] [-factor 2] [-emit ir|vptx|dot|loops|provenance]
//	uuopt -ir module.ll ...
//
// Examples:
//
//	uuopt -src bsearch.cu -config baseline -emit vptx
//	uuopt -src bsearch.cu -config uu -loop 0 -factor 2 -emit dot | dot -Tpdf > cfg.pdf
//
// Fuzzing mode runs generated kernels through the differential oracle
// (interpreter vs optimized interpreter vs simulator) across every pipeline
// configuration, exits nonzero on any miscompile or contained pass crash,
// and with -reduce writes minimized reproducers to testdata/repro/ — each a
// textual-IR file that -ir replays:
//
//	uuopt -fuzz 500 -seed 1 -verify-each -reduce
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"uu/cmd/internal/cli"
	"uu/internal/analysis"
	"uu/internal/codegen"
	"uu/internal/core"
	"uu/internal/dot"
	"uu/internal/harden/fuzz"
	"uu/internal/ir"
	"uu/internal/irparse"
	"uu/internal/lang"
	"uu/internal/pipeline"
	"uu/internal/remark"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options is uuopt's parsed command line.
type options struct {
	src, ir   string
	compile   cli.Compile
	emit      string
	noOpt     bool
	passStats bool
	remarks   string
	trace     string
	fuzz      fuzz.CampaignOptions
}

func flags(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("uuopt", flag.ContinueOnError)
	fs.StringVar(&o.src, "src", "", "MiniCU source file")
	fs.StringVar(&o.ir, "ir", "", "textual IR file (e.g. a reproducer -reduce wrote)")
	o.compile.Register(fs)
	fs.StringVar(&o.emit, "emit", "ir", "output: ir|vptx|dot|loops|provenance")
	fs.BoolVar(&o.noOpt, "O0", false, "skip the pipeline entirely (frontend output)")
	fs.BoolVar(&o.passStats, "pass-stats", false, "print the full pass log: per-pass time, changed bit, cache traffic, fixpoint rounds")
	fs.StringVar(&o.remarks, "remarks", "", "emit optimization remarks to stderr as a YAML document stream: all|passed|missed|analysis (comma-separable)")
	fs.StringVar(&o.trace, "trace", "", "write a Chrome trace_event JSON of the compilation to this file (load in Perfetto or chrome://tracing)")

	fs.IntVar(&o.fuzz.Count, "fuzz", 0, "run a differential fuzzing campaign over this many generated kernels, then exit")
	fs.Int64Var(&o.fuzz.Seed, "seed", 1, "first seed of the fuzzing campaign")
	fs.StringVar(&o.fuzz.Device, "device", "", "fuzzing: pin the simulator leg to one device spec (e.g. Vortex, MinSPPC:warpsize=8); default exercises all three divergence policies")
	fs.BoolVar(&o.fuzz.VerifyEach, "verify-each", false, "fuzzing: run the IR verifier after every pass (contained)")
	fs.BoolVar(&o.fuzz.Reduce, "reduce", false, "fuzzing: minimize each finding and write a reproducer under testdata/repro/")
	return fs
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	if code, ok := cli.Parse(flags(&o), args, stderr); !ok {
		return code
	}
	if o.fuzz.Count > 0 {
		return runFuzz(o.fuzz, stdout, stderr)
	}
	return cli.Exit("uuopt", stderr, 0, compile(&o, stdout, stderr))
}

// compile is uuopt's main mode: one kernel through one configuration,
// printed in the -emit form.
func compile(o *options, stdout, stderr io.Writer) error {
	switch o.emit {
	case "ir", "vptx", "dot", "loops", "provenance":
	default:
		return fmt.Errorf("unknown -emit %q", o.emit)
	}
	opts, err := o.compile.Options()
	if err != nil {
		return err
	}
	f, err := loadKernel(o.src, o.ir)
	if err != nil {
		return err
	}
	if o.emit == "provenance" {
		// Figure 5 mode: canonicalize, apply u&u with clone-origin tracking,
		// and print the per-block condition provenance labels before the
		// cleanup passes fold them away.
		return emitProvenance(stdout, f, opts.LoopID, opts.Factor)
	}

	kinds, remarks, err := cli.Remarks(o.remarks)
	if err != nil {
		return err
	}
	trace := cli.StartTrace(o.trace)
	if !o.noOpt {
		opts.VerifyEachPass = true
		opts.Remarks = remarks
		stats, err := pipeline.Optimize(f, opts)
		if err != nil {
			return err
		}
		stats.Trace(trace, 0)
		if o.passStats {
			printPassStats(stderr, stats)
		}
		for _, d := range stats.Decisions {
			fmt.Fprintf(stderr, "heuristic: loop #%d (header %s): factor %d (p=%d s=%d f=%d)\n",
				d.LoopID, d.Header.Name, d.Factor, d.Paths, d.Size, d.Estimated)
		}
	}
	if remarks != nil {
		if err := remark.WriteYAML(stderr, remarks.Remarks(), kinds); err != nil {
			return err
		}
	}

	switch o.emit {
	case "ir":
		fmt.Fprint(stdout, f.String())
	case "vptx":
		t0 := time.Now()
		p, err := codegen.Lower(f)
		trace.Complete(0, "codegen:"+f.Name, "codegen", t0, time.Since(t0), nil)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, p.String())
		fmt.Fprintf(stderr, "code size: %d instructions, %d bytes\n", p.NumInstrs(), p.CodeBytes())
	case "dot":
		fmt.Fprint(stdout, dot.CFG(f, dot.Options{Instrs: true, Loops: true}))
	case "loops":
		for _, l := range analysis.NewLoopInfo(f, analysis.NewDomTree(f)).Loops {
			tc := "-"
			if c, ok := analysis.ConstantTripCount(l); ok {
				tc = fmt.Sprint(c)
			}
			fmt.Fprintf(stdout, "loop #%d: header=%s depth=%d blocks=%d paths=%d size=%d trip=%s convergent=%v\n",
				l.ID, l.Header.Name, l.Depth(), len(l.Blocks()),
				analysis.CountPaths(l), analysis.LoopSize(l), tc, l.HasConvergentOp())
		}
	}
	return cli.WriteTrace(trace, o.trace)
}

// printPassStats writes the instrumented pass log: every pass execution in
// pipeline order with its wall-clock time, whether it changed the function,
// and its analysis-cache traffic, followed by the fixpoint round counts and
// the whole-compile cache summary.
func printPassStats(w io.Writer, stats *pipeline.Stats) {
	fmt.Fprintf(w, "%-24s %12s  %-7s %s\n", "pass", "time", "changed", "cache")
	for _, pt := range stats.PassTimes {
		changed := "-"
		if pt.Changed {
			changed = "yes"
		}
		cache := pt.Cache.String()
		if cache == "" {
			cache = "-"
		}
		fmt.Fprintf(w, "%-24s %12v  %-7s %s\n", pt.Name, pt.Duration, changed, cache)
	}
	for _, r := range stats.Rounds {
		fmt.Fprintf(w, "phase %-18s %d/%d rounds\n", r.Phase, r.Rounds, r.MaxRounds)
	}
	fmt.Fprintf(w, "analysis cache: %d hits / %d misses (%.0f%% hit rate), %d invalidations\n",
		stats.Analysis.TotalHits(), stats.Analysis.TotalMisses(),
		100*stats.Analysis.HitRate(), stats.Analysis.TotalInvalidated())
	fmt.Fprintf(w, "verify: %v   compile: %v\n", stats.VerifyTime, stats.CompileTime)
}

// loadKernel reads the one kernel of a MiniCU source or textual-IR file.
func loadKernel(srcPath, irPath string) (*ir.Function, error) {
	parse, path := lang.CompileKernel, srcPath
	switch {
	case srcPath != "" && irPath != "":
		return nil, fmt.Errorf("-src and -ir are mutually exclusive")
	case irPath != "":
		parse, path = irparse.ParseFunc, irPath
	case srcPath == "":
		return nil, fmt.Errorf("one of -src or -ir is required")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parse(string(data))
}

// emitProvenance prints the paper's Figure 5 labels: each block of the
// unrolled-and-unmerged loop annotated with the implied truth value of every
// conditional branch of the original loop body.
func emitProvenance(w io.Writer, f *ir.Function, loopID, factor int) error {
	l := pipeline.Canonicalize(f).LoopByID(loopID)
	if l == nil {
		return fmt.Errorf("no loop #%d", loopID)
	}
	var conds []*ir.Instr
	for _, b := range l.Blocks() {
		t := b.Term()
		if t == nil || t.Op != ir.OpCondBr {
			continue
		}
		if c, ok := t.Arg(0).(*ir.Instr); ok {
			conds = append(conds, c)
		}
	}
	origins := map[*ir.Instr]*ir.Instr{}
	if _, err := core.UnrollAndUnmerge(f, loopID, factor, core.Options{Origins: origins}); err != nil {
		return err
	}
	labels := core.ConditionProvenance(f, conds, origins)
	fmt.Fprintln(w, "conditions (label positions):")
	for i, c := range conds {
		fmt.Fprintf(w, "  #%d: %s (in %s)\n", i, c.String(), c.Block().Name)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "per-block provenance:")
	for _, b := range f.Blocks() {
		fmt.Fprintf(w, "  %-28s %s\n", b.Name, labels[b])
	}
	fmt.Fprintln(w)
	fmt.Fprint(w, dot.CFG(f, dot.Options{Loops: true, Labels: labels}))
	return nil
}

// runFuzz executes the differential fuzzing campaign and returns the
// process exit code: 0 when every check was clean, 1 on any genuine
// differential mismatch or contained pass failure, 2 when the only
// problems were infrastructure failures — execution-budget exhaustion,
// decode errors, or the campaign itself erroring out. The split lets CI
// triage a red fuzz job without parsing logs: exit 1 means "a pass
// miscompiles", exit 2 means "the harness needs attention".
func runFuzz(opts fuzz.CampaignOptions, stdout, stderr io.Writer) int {
	opts.Log = stderr
	if opts.Reduce {
		opts.ReproDir = filepath.Join("testdata", "repro")
	}
	res, err := fuzz.RunCampaign(opts)
	if err != nil {
		return cli.Exit("uuopt", stderr, 2, err)
	}
	mismatches, infra := res.Partition()
	fmt.Fprintf(stdout, "fuzz: %d kernels, %d checks, %d refusals, %d findings (%d mismatches, %d infra), %d contained pass failures\n",
		res.Kernels, res.Checks, res.Refusals, len(res.Findings), mismatches, infra, len(res.Failures))
	for _, pf := range res.Failures {
		fmt.Fprintf(stdout, "  contained: %s\n", pf.String())
	}
	for _, f := range res.Findings {
		class := "finding"
		if f.Div.Infra() {
			class = "infra"
		}
		fmt.Fprintf(stdout, "  %s: %s\n", class, f.Div.String())
		if f.ReproPath != "" {
			fmt.Fprintf(stdout, "    reproducer: %s (stop-after %d)\n", f.ReproPath, f.StopAfter)
		}
	}
	switch {
	case mismatches > 0 || len(res.Failures) > 0:
		return 1
	case infra > 0:
		return 2
	}
	return 0
}

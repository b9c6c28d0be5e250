// Command uuopt compiles a MiniCU kernel (or textual IR) through one of the
// paper's five pipeline configurations and prints the result as IR, VPTX, or
// a Graphviz CFG.
//
// Usage:
//
//	uuopt -src kernel.cu [-config uu] [-loop 0] [-factor 2] [-emit ir|vptx|dot|loops]
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
// and with -reduce writes minimized reproducers:
//
//	uuopt -fuzz 500 -seed 1 -verify-each -reduce
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

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
	"uu/internal/transform"
)

func main() {
	var (
		srcPath   = flag.String("src", "", "MiniCU source file")
		irPath    = flag.String("ir", "", "textual IR file")
		config    = flag.String("config", "baseline", "pipeline config: baseline|unroll|unmerge|uu|uu-heuristic")
		loopID    = flag.Int("loop", 0, "loop id for per-loop configs")
		factor    = flag.Int("factor", 2, "unroll factor for unroll/uu")
		emit      = flag.String("emit", "ir", "output: ir|vptx|dot|loops|provenance")
		kernel    = flag.String("kernel", "", "kernel name when the module has several")
		direct    = flag.Bool("direct-successor", false, "unmerge only the minimal SSA-closed region (DBDS-style ablation)")
		noIfConv  = flag.Bool("no-ifconvert", false, "disable backend predication (ablation)")
		noOpt     = flag.Bool("O0", false, "skip the pipeline entirely (frontend output)")
		passStats = flag.Bool("pass-stats", false, "print the full pass log: per-pass time, changed bit, cache traffic, fixpoint rounds")
		remarks   = flag.String("remarks", "", "emit optimization remarks to stderr as a YAML document stream: all|passed|missed|analysis (comma-separable)")
		tracePath = flag.String("trace", "", "write a Chrome trace_event JSON of the compilation to this file (load in Perfetto or chrome://tracing)")

		fuzzN      = flag.Int("fuzz", 0, "run a differential fuzzing campaign over this many generated kernels, then exit")
		fuzzSeed   = flag.Int64("seed", 1, "first seed of the fuzzing campaign")
		fuzzDevice = flag.String("device", "", "fuzzing: pin the simulator leg to one device spec (e.g. Vortex, MinSPPC:warpsize=8); default exercises all three divergence policies")
		verifyEach = flag.Bool("verify-each", false, "fuzzing: run the IR verifier after every pass (contained)")
		reduce     = flag.Bool("reduce", false, "fuzzing: minimize each finding and write a reproducer")
		reproDir   = flag.String("repro-dir", filepath.Join("testdata", "repro"), "fuzzing: directory for minimized reproducers")
	)
	flag.Parse()

	if *fuzzN > 0 {
		os.Exit(runFuzz(*fuzzN, *fuzzSeed, *fuzzDevice, *verifyEach, *reduce, *reproDir))
	}

	f, err := loadFunction(*srcPath, *irPath, *kernel)
	if err != nil {
		fatal(err)
	}

	if *emit == "provenance" {
		// Figure 5 mode: canonicalize, apply u&u with clone-origin tracking,
		// and print the per-block condition provenance labels before the
		// cleanup passes fold them away.
		emitProvenance(f, *loopID, *factor)
		return
	}

	var remarkKinds map[remark.Kind]bool
	var collector *remark.Collector
	if *remarks != "" {
		kinds, err := remark.ParseKinds(*remarks)
		if err != nil {
			fatal(err)
		}
		remarkKinds = kinds
		collector = remark.NewCollector()
	}
	var trace *remark.Trace
	if *tracePath != "" {
		trace = remark.NewTrace()
	}

	if !*noOpt {
		opts := pipeline.Options{
			Config:           pipeline.Config(*config),
			LoopID:           *loopID,
			Factor:           *factor,
			DisableIfConvert: *noIfConv,
			VerifyEachPass:   true,
			Remarks:          collector,
		}
		opts.Unmerge.DirectSuccessorOnly = *direct
		stats, err := pipeline.Optimize(f, opts)
		if err != nil {
			fatal(err)
		}
		if trace != nil {
			stats.Trace(trace, 0)
		}
		if *passStats {
			printPassStats(stats)
		}
		for _, d := range stats.Decisions {
			fmt.Fprintf(os.Stderr, "heuristic: loop #%d (header %s): factor %d (p=%d s=%d f=%d)\n",
				d.LoopID, d.Header.Name, d.Factor, d.Paths, d.Size, d.Estimated)
		}
	}

	if collector != nil {
		if err := remark.WriteYAML(os.Stderr, collector.Remarks(), remarkKinds); err != nil {
			fatal(err)
		}
	}

	switch *emit {
	case "ir":
		fmt.Print(f.String())
	case "vptx":
		t0 := time.Now()
		p, err := codegen.Lower(f)
		trace.Complete(0, "codegen:"+f.Name, "codegen", t0, time.Since(t0), nil)
		if err != nil {
			fatal(err)
		}
		fmt.Print(p.String())
		fmt.Fprintf(os.Stderr, "code size: %d instructions, %d bytes\n", p.NumInstrs(), p.CodeBytes())
	case "dot":
		fmt.Print(dot.CFG(f, dot.Options{Instrs: true, Loops: true}))
	case "loops":
		dt := analysis.NewDomTree(f)
		li := analysis.NewLoopInfo(f, dt)
		for _, l := range li.Loops {
			tc := "-"
			if c, ok := analysis.ConstantTripCount(l); ok {
				tc = fmt.Sprint(c)
			}
			fmt.Printf("loop #%d: header=%s depth=%d blocks=%d paths=%d size=%d trip=%s convergent=%v\n",
				l.ID, l.Header.Name, l.Depth(), len(l.Blocks()),
				analysis.CountPaths(l), analysis.LoopSize(l), tc, l.HasConvergentOp())
		}
	default:
		fatal(fmt.Errorf("unknown -emit %q", *emit))
	}

	if trace != nil {
		if err := trace.WriteFile(*tracePath); err != nil {
			fatal(err)
		}
	}
}

// printPassStats writes the instrumented pass log to stderr: every pass
// execution in pipeline order with its wall-clock time, whether it changed
// the function, and its analysis-cache traffic, followed by the fixpoint
// round counts and the whole-compile cache summary.
func printPassStats(stats *pipeline.Stats) {
	fmt.Fprintf(os.Stderr, "%-24s %12s  %-7s %s\n", "pass", "time", "changed", "cache")
	for _, pt := range stats.PassTimes {
		changed := "-"
		if pt.Changed {
			changed = "yes"
		}
		cache := pt.Cache.String()
		if cache == "" {
			cache = "-"
		}
		fmt.Fprintf(os.Stderr, "%-24s %12v  %-7s %s\n", pt.Name, pt.Duration, changed, cache)
	}
	for _, r := range stats.Rounds {
		fmt.Fprintf(os.Stderr, "phase %-18s %d/%d rounds\n", r.Phase, r.Rounds, r.MaxRounds)
	}
	fmt.Fprintf(os.Stderr, "analysis cache: %d hits / %d misses (%.0f%% hit rate), %d invalidations\n",
		stats.Analysis.TotalHits(), stats.Analysis.TotalMisses(),
		100*stats.Analysis.HitRate(), stats.Analysis.TotalInvalidated())
	fmt.Fprintf(os.Stderr, "verify: %v   compile: %v\n", stats.VerifyTime, stats.CompileTime)
}

func loadFunction(srcPath, irPath, kernel string) (*ir.Function, error) {
	var m *ir.Module
	switch {
	case srcPath != "":
		data, err := os.ReadFile(srcPath)
		if err != nil {
			return nil, err
		}
		m, err = lang.Compile(string(data))
		if err != nil {
			return nil, err
		}
	case irPath != "":
		data, err := os.ReadFile(irPath)
		if err != nil {
			return nil, err
		}
		m, err = irparse.Parse(string(data))
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("one of -src or -ir is required")
	}
	if kernel != "" {
		f := m.FuncByName(kernel)
		if f == nil {
			return nil, fmt.Errorf("no kernel %q in module", kernel)
		}
		return f, nil
	}
	if len(m.Funcs()) != 1 {
		return nil, fmt.Errorf("module has %d kernels; pick one with -kernel", len(m.Funcs()))
	}
	return m.Funcs()[0], nil
}

// emitProvenance prints the paper's Figure 5 labels: each block of the
// unrolled-and-unmerged loop annotated with the implied truth value of every
// conditional branch of the original loop body.
func emitProvenance(f *ir.Function, loopID, factor int) {
	transform.Mem2Reg(f)
	transform.SimplifyCFG(f)
	transform.InstSimplify(f)
	transform.DCE(f)
	dt := analysis.NewDomTree(f)
	li := analysis.NewLoopInfo(f, dt)
	l := li.LoopByID(loopID)
	if l == nil {
		fatal(fmt.Errorf("no loop #%d", loopID))
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
		fatal(err)
	}
	labels := core.ConditionProvenance(f, conds, origins)
	fmt.Println("conditions (label positions):")
	for i, c := range conds {
		fmt.Printf("  #%d: %s (in %s)"+"\n", i, c.String(), c.Block().Name)
	}
	fmt.Println()
	fmt.Println("per-block provenance:")
	for _, b := range f.Blocks() {
		fmt.Printf("  %-28s %s"+"\n", b.Name, labels[b])
	}
	fmt.Println()
	fmt.Print(dot.CFG(f, dot.Options{Loops: true, Labels: labels}))
}

// runFuzz executes the differential fuzzing campaign and returns the
// process exit code: 0 when every check was clean, 1 on any genuine
// differential mismatch or contained pass failure, 2 when the only
// problems were infrastructure failures — execution-budget exhaustion,
// decode errors, or the campaign itself erroring out. The split lets CI
// triage a red fuzz job without parsing logs: exit 1 means "a pass
// miscompiles", exit 2 means "the harness needs attention".
func runFuzz(count int, seed int64, device string, verifyEach, reduce bool, reproDir string) int {
	opts := fuzz.CampaignOptions{
		Count:      count,
		Seed:       seed,
		Device:     device,
		VerifyEach: verifyEach,
		Reduce:     reduce,
		Log:        os.Stderr,
	}
	if reduce {
		opts.ReproDir = reproDir
	}
	res, err := fuzz.RunCampaign(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "uuopt:", err)
		return 2
	}
	mismatches, infra := res.Partition()
	fmt.Printf("fuzz: %d kernels, %d checks, %d refusals, %d findings (%d mismatches, %d infra), %d contained pass failures\n",
		res.Kernels, res.Checks, res.Refusals, len(res.Findings), mismatches, infra, len(res.Failures))
	for _, pf := range res.Failures {
		fmt.Printf("  contained: %s\n", pf.String())
	}
	for _, f := range res.Findings {
		class := "finding"
		if f.Div.Infra() {
			class = "infra"
		}
		fmt.Printf("  %s: %s\n", class, f.Div.String())
		if f.ReproPath != "" {
			fmt.Printf("    reproducer: %s (stop-after %d)\n", f.ReproPath, f.StopAfter)
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "uuopt:", err)
	os.Exit(1)
}

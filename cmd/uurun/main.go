// Command uurun compiles one of the suite's benchmarks (or a MiniCU source
// with an explicit workload description) through a pipeline configuration
// and executes it on the SIMT simulator, printing the nvprof-style metrics.
//
// Usage:
//
//	uurun -bench xsbench [-config uu -loop 0 -factor 2] [-verify]
//	uurun -bench bezier-surface -config uu-heuristic -profile prof/bezier
//	uurun -src axpy.cu -args i:0,i:800,f:3.0,i:100 -mem 1024 -grid 2 -block 64
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"uu/internal/bench"
	"uu/internal/codegen"
	"uu/internal/core"
	"uu/internal/gpusim"
	"uu/internal/interp"
	"uu/internal/lang"
	"uu/internal/pipeline"
	"uu/internal/profile"
	"uu/internal/remark"
)

func main() {
	var (
		benchName  = flag.String("bench", "", "suite benchmark name (see -list)")
		list       = flag.Bool("list", false, "list suite benchmarks")
		srcPath    = flag.String("src", "", "MiniCU source file (with -args/-mem/-grid/-block)")
		argsSpec   = flag.String("args", "", "kernel arguments, comma-separated i:<int> / f:<float>")
		memSize    = flag.Int64("mem", 1<<20, "device memory bytes (with -src)")
		grid       = flag.Int("grid", 1, "grid dimension (with -src)")
		block      = flag.Int("block", 32, "block dimension (with -src)")
		config     = flag.String("config", "baseline", "pipeline config")
		device     = flag.String("device", "V100", "device model: registry name with optional overrides, e.g. V100, MinSPPC, Vortex:warpsize=8")
		inputMode  = flag.String("input", "coherent", "workload input mode (suite benchmarks only): coherent or noise")
		loopID     = flag.Int("loop", 0, "loop id for per-loop configs")
		factor     = flag.Int("factor", 2, "unroll factor")
		verify     = flag.Bool("verify", false, "check results against the reference interpreter (suite benchmarks only)")
		tracePath  = flag.String("trace", "", "write a Chrome trace_event JSON of the compile and simulation to this file")
		remarksStr = flag.String("remarks", "", "print optimization remarks to stderr as YAML: all|passed|missed|analysis (comma-separable)")
		profPrefix = flag.String("profile", "", "collect a per-PC hotspot profile and write <prefix>.hotspots.txt, <prefix>.folded and <prefix>.pb.gz")
		selective  = flag.Bool("selective", false, "uu-heuristic: selective-unmerge mode (only benefit-predicted merge blocks are duplicated)")
		overrides  = flag.String("overrides", "", "uu-heuristic: per-loop profile overrides, e.g. L10:deny,L12:force+cap=2 — the profile-guided path a PGO driver (uubench -pgo) derives")
	)
	flag.Parse()

	if *list {
		for _, b := range bench.Suite {
			fmt.Printf("%-16s %-30s loops=%d\n", b.Name, b.Category, bench.LoopCount(b))
		}
		return
	}

	var remarkKinds map[remark.Kind]bool
	var collector *remark.Collector
	if *remarksStr != "" {
		kinds, err := remark.ParseKinds(*remarksStr)
		if err != nil {
			fatal(err)
		}
		remarkKinds = kinds
		collector = remark.NewCollector()
	}
	writeRemarks := func() {
		if collector == nil {
			return
		}
		if err := remark.WriteYAML(os.Stderr, collector.Remarks(), remarkKinds); err != nil {
			fatal(err)
		}
	}

	var trace *remark.Trace
	if *tracePath != "" {
		trace = remark.NewTrace()
	}
	// traceRun renders one compile+simulate from the layers' records and this
	// command's own clocks (when codegen finished; the simulation's start
	// and length), then writes the file.
	traceRun := func(st *pipeline.Stats, lowered, simStart time.Time, simDur time.Duration, m *gpusim.Metrics, dev gpusim.DeviceConfig) {
		if trace == nil {
			return
		}
		bench.TraceCompile(trace, 0, st, lowered)
		bench.TraceSim(trace, 0, st.Function, simStart, simDur, m, dev)
		if err := trace.WriteFile(*tracePath); err != nil {
			fatal(err)
		}
	}

	opts := pipeline.Options{
		Config:  pipeline.Config(*config),
		LoopID:  *loopID,
		Factor:  *factor,
		Remarks: collector,
	}
	if *selective || *overrides != "" {
		if opts.Config != pipeline.UUHeuristic {
			fatal(fmt.Errorf("-selective/-overrides require -config %s", pipeline.UUHeuristic))
		}
		ov, err := core.ParseOverrides(*overrides)
		if err != nil {
			fatal(err)
		}
		opts.Heuristic = core.HeuristicParams{Selective: *selective, Overrides: ov}
	}
	dev, devName, err := gpusim.ParseDevice(*device)
	if err != nil {
		fatal(err)
	}
	input, err := bench.ParseInputMode(*inputMode)
	if err != nil {
		fatal(err)
	}

	if *benchName != "" {
		b := bench.ByName(*benchName)
		if b == nil {
			fatal(fmt.Errorf("unknown benchmark %q (use -list)", *benchName))
		}
		w := b.NewWorkload()
		w.SetInput(input)
		fmt.Printf("device                 %s\n", devName)
		cr, err := bench.Compile(b, opts)
		lowered := time.Now()
		if err != nil {
			fatal(err)
		}
		var ref *interp.Memory
		if *verify {
			if ref, err = bench.Reference(b, w); err != nil {
				fatal(err)
			}
		}
		var prof *gpusim.Profile
		if *profPrefix != "" {
			prof = gpusim.NewProfile(cr.Program)
		}
		simStart := time.Now()
		m, err := bench.ExecuteCtx(context.Background(), cr, w, dev, ref, prof)
		simDur := time.Since(simStart)
		if err != nil {
			fatal(err)
		}
		if *verify {
			fmt.Println("verification: OK")
		}
		report(m, dev, cr.Program)
		if prof != nil {
			writeProfile(*profPrefix, cr.Program, prof, cr.Stats.Decisions, cr.Stats.Skips)
		}
		writeRemarks()
		traceRun(cr.Stats, lowered, simStart, simDur, m, dev)
		return
	}

	if *srcPath == "" {
		fatal(fmt.Errorf("one of -bench or -src is required"))
	}
	data, err := os.ReadFile(*srcPath)
	if err != nil {
		fatal(err)
	}
	m, err := lang.Compile(string(data))
	if err != nil {
		fatal(err)
	}
	if len(m.Funcs()) != 1 {
		fatal(fmt.Errorf("source must contain exactly one kernel"))
	}
	f := m.Funcs()[0]
	stats, err := pipeline.Optimize(f, opts)
	if err != nil {
		fatal(err)
	}
	prog, err := codegen.Lower(f)
	lowered := time.Now()
	if err != nil {
		fatal(err)
	}
	args, err := parseArgs(*argsSpec)
	if err != nil {
		fatal(err)
	}
	var prof *gpusim.Profile
	if *profPrefix != "" {
		prof = gpusim.NewProfile(prog)
	}
	mem := interp.NewMemory(*memSize)
	simStart := time.Now()
	metrics, err := gpusim.RunCtx(context.Background(), prog, args, mem, gpusim.Launch{GridDim: *grid, BlockDim: *block}, dev, prof)
	simDur := time.Since(simStart)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("device                 %s\n", devName)
	report(metrics, dev, prog)
	if prof != nil {
		writeProfile(*profPrefix, prog, prof, stats.Decisions, stats.Skips)
	}
	writeRemarks()
	traceRun(stats, lowered, simStart, simDur, metrics, dev)
}

// writeProfile renders the hotspot profile as <prefix>.hotspots.txt (tables
// plus, for heuristic runs, the predicted-vs-measured join), <prefix>.folded
// (flamegraph folded stacks) and <prefix>.pb.gz (pprof protobuf).
func writeProfile(prefix string, prog *codegen.Program, prof *gpusim.Profile, decisions []core.Decision, skips []core.SkipRecord) {
	if dir := filepath.Dir(prefix); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fatal(err)
		}
	}
	rep := profile.Build(prog, prof)
	write := func(suffix string, render func(f *os.File) error) {
		f, err := os.Create(prefix + suffix)
		if err != nil {
			fatal(err)
		}
		if err := render(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	write(".hotspots.txt", func(f *os.File) error {
		if err := profile.WriteHotspots(f, rep); err != nil {
			return err
		}
		if len(decisions) > 0 {
			fmt.Fprintln(f)
			return profile.WritePrediction(f, rep, decisions, skips, core.DefaultHeuristicParams().C)
		}
		return nil
	})
	write(".folded", func(f *os.File) error { return profile.WriteFolded(f, rep) })
	write(".pb.gz", func(f *os.File) error { return profile.WritePprof(f, rep) })
	fmt.Printf("profile                %s.{hotspots.txt,folded,pb.gz}\n", prefix)
}

func parseArgs(spec string) ([]interp.Value, error) {
	if spec == "" {
		return nil, nil
	}
	var out []interp.Value
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		switch {
		case strings.HasPrefix(part, "i:"):
			v, err := strconv.ParseInt(part[2:], 0, 64)
			if err != nil {
				return nil, fmt.Errorf("bad int arg %q", part)
			}
			out = append(out, interp.IntVal(v))
		case strings.HasPrefix(part, "f:"):
			v, err := strconv.ParseFloat(part[2:], 64)
			if err != nil {
				return nil, fmt.Errorf("bad float arg %q", part)
			}
			out = append(out, interp.FloatVal(v))
		default:
			return nil, fmt.Errorf("argument %q must be i:<int> or f:<float>", part)
		}
	}
	return out, nil
}

func report(m *gpusim.Metrics, dev gpusim.DeviceConfig, p *codegen.Program) {
	fmt.Printf("kernel                 %s\n", p.Name)
	fmt.Printf("kernel time            %.6f ms\n", m.KernelMillis(dev))
	fmt.Printf("cycles                 %d\n", m.Cycles)
	fmt.Printf("warps                  %d\n", m.Warps)
	fmt.Printf("warp instructions      %d\n", m.WarpInstrs)
	fmt.Printf("thread instructions    %d\n", m.ThreadInstrs)
	fmt.Printf("  inst_compute         %d\n", m.ClassThread[codegen.ClassCompute])
	fmt.Printf("  inst_misc            %d\n", m.ClassThread[codegen.ClassMisc])
	fmt.Printf("  inst_control         %d\n", m.ClassThread[codegen.ClassControl])
	fmt.Printf("  inst_memory          %d\n", m.ClassThread[codegen.ClassMemory])
	fmt.Printf("gld_transactions       %d (%d bytes)\n", m.GldTransactions, m.GldBytes)
	fmt.Printf("gst_transactions       %d (%d bytes)\n", m.GstTransactions, m.GstBytes)
	fmt.Printf("warp_execution_eff     %.2f%%\n", m.WarpExecutionEfficiency(dev)*100)
	fmt.Printf("stall_inst_fetch       %.2f%%\n", m.StallInstFetchPct()*100)
	fmt.Printf("IPC                    %.3f\n", m.IPC())
	fmt.Printf("code size              %d bytes (%d instructions)\n", p.CodeBytes(), p.NumInstrs())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "uurun:", err)
	os.Exit(1)
}

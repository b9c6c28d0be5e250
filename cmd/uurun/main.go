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
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"uu/cmd/internal/cli"
	"uu/internal/bench"
	"uu/internal/codegen"
	"uu/internal/core"
	"uu/internal/gpusim"
	"uu/internal/interp"
	"uu/internal/profile"
	"uu/internal/remark"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options is uurun's parsed command line.
type options struct {
	bench   string
	list    bool
	src     string
	args    string
	mem     int64
	grid    int
	block   int
	compile cli.Compile
	target  cli.Target
	verify  bool
	trace   string
	remarks string
	profile string
}

func flags(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("uurun", flag.ContinueOnError)
	fs.StringVar(&o.bench, "bench", "", "suite benchmark name (see -list)")
	fs.BoolVar(&o.list, "list", false, "list suite benchmarks")
	fs.StringVar(&o.src, "src", "", "MiniCU source file (with -args/-mem/-grid/-block)")
	fs.StringVar(&o.args, "args", "", "kernel arguments, comma-separated i:<int> / f:<float> (with -src)")
	fs.Int64Var(&o.mem, "mem", 1<<20, "device memory bytes (with -src)")
	fs.IntVar(&o.grid, "grid", 1, "grid dimension (with -src)")
	fs.IntVar(&o.block, "block", 32, "block dimension (with -src)")
	o.compile.Register(fs)
	o.compile.RegisterHeuristic(fs)
	o.target.Register(fs)
	fs.BoolVar(&o.verify, "verify", false, "check results against the reference interpreter (with -bench)")
	fs.StringVar(&o.trace, "trace", "", "write a Chrome trace_event JSON of the compile and simulation to this file")
	fs.StringVar(&o.remarks, "remarks", "", "print optimization remarks to stderr as YAML: all|passed|missed|analysis (comma-separable)")
	fs.StringVar(&o.profile, "profile", "", "collect a per-PC hotspot profile and write <prefix>.hotspots.txt, <prefix>.folded and <prefix>.pb.gz")
	return fs
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	if code, ok := cli.Parse(flags(&o), args, stderr); !ok {
		return code
	}
	if o.list {
		for _, b := range bench.Suite {
			fmt.Fprintf(stdout, "%-16s %-30s loops=%d\n", b.Name, b.Category, bench.LoopCount(b))
		}
		return 0
	}
	return cli.Exit("uurun", stderr, 0, execute(&o, stdout, stderr))
}

// workload resolves what to run: a suite benchmark with its own workload,
// or the -src kernel as an ad-hoc benchmark over zeroed memory.
func workload(o *options, input bench.InputMode) (*bench.Benchmark, *bench.Workload, error) {
	if o.bench != "" {
		b := bench.ByName(o.bench)
		if b == nil {
			return nil, nil, fmt.Errorf("unknown benchmark %q (use -list)", o.bench)
		}
		w := b.NewWorkload()
		w.SetInput(input)
		return b, w, nil
	}
	if o.src == "" {
		return nil, nil, fmt.Errorf("one of -bench or -src is required")
	}
	if o.verify {
		return nil, nil, fmt.Errorf("-verify needs -bench: a -src workload names no output regions to compare")
	}
	if o.mem < 0 {
		return nil, nil, fmt.Errorf("-mem %d must be >= 0", o.mem)
	}
	data, err := os.ReadFile(o.src)
	if err != nil {
		return nil, nil, err
	}
	args, err := parseArgs(o.args)
	if err != nil {
		return nil, nil, err
	}
	b := &bench.Benchmark{Name: filepath.Base(o.src), Source: string(data)}
	w := &bench.Workload{Args: args, MemSize: o.mem, Launch: gpusim.Launch{GridDim: o.grid, BlockDim: o.block}}
	return b, w, nil
}

// execute compiles and simulates the selected workload. Nothing reaches
// stdout until both have succeeded.
func execute(o *options, stdout, stderr io.Writer) error {
	opts, err := o.compile.Options()
	if err != nil {
		return err
	}
	dev, devName, input, err := o.target.Resolve()
	if err != nil {
		return err
	}
	kinds, remarks, err := cli.Remarks(o.remarks)
	if err != nil {
		return err
	}
	opts.Remarks = remarks
	b, w, err := workload(o, input)
	if err != nil {
		return err
	}
	var ref *interp.Memory
	if o.verify {
		if ref, err = bench.Reference(b, w); err != nil {
			return err
		}
	}

	trace := cli.StartTrace(o.trace)
	rec, err := bench.Run(context.Background(), bench.Job{Name: b.Name, Kernel: b.CompileKernel, Workload: w,
		Options: opts, Device: dev, Want: ref, Profile: o.profile != ""})
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "device                 %s\n", devName)
	if o.verify {
		fmt.Fprintln(stdout, "verification: OK")
	}
	report(stdout, rec.Metrics, dev, rec.Program)
	if rec.Profile != nil {
		if err := writeProfile(o.profile, rec); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "profile                %s.{hotspots.txt,folded,pb.gz}\n", o.profile)
	}
	if remarks != nil {
		if err := remark.WriteYAML(stderr, rec.Remarks, kinds); err != nil {
			return err
		}
	}
	rec.Trace(trace, 0, dev)
	return cli.WriteTrace(trace, o.trace)
}

// writeProfile renders the run's hotspot profile as <prefix>.hotspots.txt
// (tables plus, for heuristic runs, the predicted-vs-measured join) and the
// flamegraph pair <prefix>.folded / <prefix>.pb.gz.
func writeProfile(prefix string, rec *bench.RunRecord) error {
	rep := profile.Build(rec.Program, rec.Profile)
	err := cli.WriteFile(prefix+".hotspots.txt", func(w io.Writer) error {
		if err := profile.WriteHotspots(w, rep); err != nil {
			return err
		}
		if st := rec.Stats; len(st.Decisions) > 0 {
			fmt.Fprintln(w)
			return profile.WritePrediction(w, rep, st.Decisions, st.Skips, core.DefaultHeuristicParams().C)
		}
		return nil
	})
	if err != nil {
		return err
	}
	return cli.WriteProfilePair(prefix, rep)
}

func parseArgs(spec string) ([]interp.Value, error) {
	var out []interp.Value
	for _, part := range cli.SplitCSV(spec) {
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

func report(w io.Writer, m *gpusim.Metrics, dev gpusim.DeviceConfig, p *codegen.Program) {
	fmt.Fprintf(w, "kernel                 %s\n", p.Name)
	fmt.Fprintf(w, "kernel time            %.6f ms\n", m.KernelMillis(dev))
	fmt.Fprintf(w, "cycles                 %d\n", m.Cycles)
	fmt.Fprintf(w, "warps                  %d\n", m.Warps)
	fmt.Fprintf(w, "warp instructions      %d\n", m.WarpInstrs)
	fmt.Fprintf(w, "thread instructions    %d\n", m.ThreadInstrs)
	fmt.Fprintf(w, "  inst_compute         %d\n", m.ClassThread[codegen.ClassCompute])
	fmt.Fprintf(w, "  inst_misc            %d\n", m.ClassThread[codegen.ClassMisc])
	fmt.Fprintf(w, "  inst_control         %d\n", m.ClassThread[codegen.ClassControl])
	fmt.Fprintf(w, "  inst_memory          %d\n", m.ClassThread[codegen.ClassMemory])
	fmt.Fprintf(w, "gld_transactions       %d (%d bytes)\n", m.GldTransactions, m.GldBytes)
	fmt.Fprintf(w, "gst_transactions       %d (%d bytes)\n", m.GstTransactions, m.GstBytes)
	fmt.Fprintf(w, "warp_execution_eff     %.2f%%\n", m.WarpExecutionEfficiency(dev)*100)
	fmt.Fprintf(w, "stall_inst_fetch       %.2f%%\n", m.StallInstFetchPct()*100)
	fmt.Fprintf(w, "IPC                    %.3f\n", m.IPC())
	fmt.Fprintf(w, "code size              %d bytes (%d instructions)\n", p.CodeBytes(), p.NumInstrs())
}

// Package cli spells once what the command-line tools share: the flag
// groups that mean the same thing in every tool (which compilation, which
// device and input), the remark and trace sinks, the file writers, and the
// run/exit convention. It lives under cmd/ because no layer below cmd/
// knows about flags.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"uu/internal/bench"
	"uu/internal/core"
	"uu/internal/gpusim"
	"uu/internal/pipeline"
	"uu/internal/profile"
	"uu/internal/remark"
)

// Parse parses args into a tool's flag set (made with flag.ContinueOnError)
// the way flag.ExitOnError would, without exiting: messages and usage go to
// stderr, and ok is false when the tool should return code at once (2 for a
// bad flag, 0 for -h).
func Parse(fs *flag.FlagSet, args []string, stderr io.Writer) (code int, ok bool) {
	fs.SetOutput(stderr)
	switch err := fs.Parse(args); {
	case err == nil:
		return 0, true
	case errors.Is(err, flag.ErrHelp):
		return 0, false
	}
	return 2, false
}

// Exit turns a tool body's result into its exit code: an error is printed
// as "<tool>: <err>" and exits 1 unless the body chose another code.
func Exit(tool string, stderr io.Writer, code int, err error) int {
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", tool, err)
		if code == 0 {
			code = 1
		}
	}
	return code
}

// Compile is the compile-selection flag group: -config, -loop and -factor,
// plus, where a tool registers them, the uu-heuristic parameters -selective
// and -overrides.
type Compile struct {
	config       string
	loop, factor int
	selective    bool
	overrides    string
}

// Register defines -config, -loop and -factor on fs.
func (c *Compile) Register(fs *flag.FlagSet) {
	fs.StringVar(&c.config, "config", "baseline", "pipeline config: baseline|unroll|unmerge|uu|uu-heuristic")
	fs.IntVar(&c.loop, "loop", 0, "loop id for the per-loop configs (unroll, unmerge, uu)")
	fs.IntVar(&c.factor, "factor", 2, "unroll factor for unroll/uu")
}

// RegisterHeuristic defines -selective and -overrides on fs.
func (c *Compile) RegisterHeuristic(fs *flag.FlagSet) {
	fs.BoolVar(&c.selective, "selective", false, "uu-heuristic: selective-unmerge mode (only benefit-predicted merge blocks are duplicated)")
	fs.StringVar(&c.overrides, "overrides", "", "uu-heuristic: per-loop profile overrides, e.g. L10:deny,L12:force+cap=2 — the profile-guided path a PGO driver (uubench -pgo) derives")
}

// Options validates the parsed flags into the pipeline's options.
func (c *Compile) Options() (pipeline.Options, error) {
	cfg, err := pipeline.ParseConfig(c.config)
	if err != nil {
		return pipeline.Options{}, err
	}
	opts := pipeline.Options{Config: cfg, LoopID: c.loop, Factor: c.factor}
	if c.selective || c.overrides != "" {
		if cfg != pipeline.UUHeuristic {
			return opts, fmt.Errorf("-selective/-overrides require -config %s", pipeline.UUHeuristic)
		}
		ov, err := core.ParseOverrides(c.overrides)
		if err != nil {
			return opts, err
		}
		opts.Heuristic.Overrides = ov
		opts.Unmerge.Selective = c.selective
	}
	return opts, nil
}

// Target is the flag group for what a kernel runs on: -device and -input.
type Target struct{ device, input string }

// Register defines -device and -input on fs.
func (t *Target) Register(fs *flag.FlagSet) {
	fs.StringVar(&t.device, "device", "V100", "device model: a registry name with optional overrides, e.g. V100, MinSPPC, Vortex:warpsize=8 (see gpusim.ParseDevice)")
	fs.StringVar(&t.input, "input", "coherent", "suite workload input mode: coherent or noise")
}

// Resolve validates the parsed flags into a device, its name and the input
// mode.
func (t *Target) Resolve() (gpusim.DeviceConfig, string, bench.InputMode, error) {
	dev, name, err := gpusim.ParseDevice(t.device)
	if err != nil {
		return dev, name, "", err
	}
	input, err := bench.ParseInputMode(t.input)
	return dev, name, input, err
}

// Remarks resolves a -remarks value into the kinds to print and the
// collector that gathers them. Without the flag both are nil: a nil
// collector is disabled (remark.Collector), and the caller skips the write.
func Remarks(spec string) (map[remark.Kind]bool, *remark.Collector, error) {
	if spec == "" {
		return nil, nil, nil
	}
	kinds, err := remark.ParseKinds(spec)
	return kinds, remark.NewCollector(), err
}

// StartTrace starts the trace behind a -trace flag: nil — which records
// nothing — when no path was given. Start it before the work it will
// render (remark.NewTrace).
func StartTrace(path string) *remark.Trace {
	if path == "" {
		return nil
	}
	return remark.NewTrace()
}

// WriteTrace writes a trace started by StartTrace to its path.
func WriteTrace(tr *remark.Trace, path string) error {
	if tr == nil {
		return nil
	}
	return tr.WriteFile(path)
}

// WriteFile creates path (and its directory), renders into it, and reports
// the first error of the three steps, Close included.
func WriteFile(path string, render func(io.Writer) error) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteProfilePair writes a hotspot report's flamegraph inputs:
// <prefix>.folded (folded stacks) and <prefix>.pb.gz (pprof protobuf).
func WriteProfilePair(prefix string, rep *profile.Report) error {
	if err := WriteFile(prefix+".folded", func(w io.Writer) error { return profile.WriteFolded(w, rep) }); err != nil {
		return err
	}
	return WriteFile(prefix+".pb.gz", func(w io.Writer) error { return profile.WritePprof(w, rep) })
}

// SplitCSV splits a comma-separated flag value, trimming whitespace and
// dropping empty items.
func SplitCSV(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

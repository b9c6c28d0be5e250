// Command uuperf is the repository's layered benchmark. It runs one of four
// workloads against the layers' public functions, checks every output, and
// prints one JSON document with every metric by name and unit. README.md
// explains the workloads, the metrics and how they interact.
//
//	uuperf -workload sweep|simulate|serve-cold|serve-hot [-seed n] [-seconds n] [-trace 0|1]
//	uuperf -audit n
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// defaultSeconds is BENCHMARK.json's run_seconds, the length the workloads'
// pass and request counts are sized for.
const defaultSeconds = 20

// runConfig is what the command line asks of a workload.
type runConfig struct {
	seed int64
	// seconds is the target length of the timed section on the reference
	// box; see scaled.
	seconds int
	// traced selects the per-layer run: the ops are driven through each
	// layer's public calls one by one, with a span around every call.
	traced bool
}

// scaled turns a pass or request count sized for defaultSeconds into the
// count for the -seconds asked for, never less than floor. The driver always
// asks for run_seconds, so this is the identity there; the rule is a count,
// never a clock, so equal flags do equal work. The sweep is one campaign
// whatever -seconds says.
func (c runConfig) scaled(n, floor int) int {
	return max(floor, n*c.seconds/defaultSeconds)
}

// spans returns the log a traced run records into, nil for an untraced run.
func (c runConfig) spans() *spanLog {
	if c.traced {
		return &spanLog{}
	}
	return nil
}

// outcome is what a workload measured.
type outcome struct {
	attempted int // ops whose output was checked
	failed    int // of those: failed, refused, wrong output or wrong key
	// latencies holds the latency in ms of every op of the timed section
	// that completed correctly.
	latencies []float64
	// passWallS is the wall clock of each stretch of the timed section.
	passWallS []float64
	section
	speedup, growth float64            // geomeans over the 16 apps
	layers          map[string]float64 // per-layer metrics, traced runs only
	spans           *spanLog
}

// sample records the latency of one correct op.
func (o *outcome) sample(latencyMs float64) { o.latencies = append(o.latencies, latencyMs) }

// addSection adds the clocks of one more stretch of the timed section.
func (o *outcome) addSection(sec section) {
	if len(o.passWallS) == 0 {
		o.section = sec
	} else {
		o.section = o.section.plus(sec)
	}
	o.passWallS = append(o.passWallS, sec.wallS)
}

// overheadRatio is what tracing costs: the median, over the stretches a
// traced run takes in turns, of the traced stretch's wall clock over its
// untraced twin's.
func overheadRatio(traced, untraced *outcome) float64 {
	var ratios []float64
	for i, w := range traced.passWallS {
		ratios = append(ratios, w/untraced.passWallS[i])
	}
	_, median, _ := quartiles(ratios)
	return median
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the one JSON object a run prints as its last line.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// endToEndValues computes the -trace 0 metrics.
func (o *outcome) endToEndValues() map[string]float64 {
	return map[string]float64{
		"setup_s":             o.setupS,
		"ok_share":            float64(o.attempted-o.failed) / float64(o.attempted),
		"alloc_mb":            o.allocMB,
		"uu_speedup_geomean":  o.speedup,
		"code_growth_geomean": o.growth,
	}
}

// timingValues computes the clocks of the timed section: raw, over every
// correct op, as the issue defines them. They are per-layer metrics because
// they do not repeat within a tenth on the reference box (SPREAD.md); an
// untraced run prints them on a line of their own before its report.
func (o *outcome) timingValues() (map[string]float64, error) {
	p50, err := pickPercentile(o.latencies, 0.50)
	if err != nil {
		return nil, err
	}
	p90, err := pickPercentile(o.latencies, 0.90)
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"wall_s":    o.wallS,
		"cpu_s":     o.cpuS,
		"ops_per_s": float64(len(o.latencies)) / o.wallS,
		"op_ms_p50": p50,
		"op_ms_p90": p90,
	}, nil
}

// newReport pairs values with the declared units; a declared metric without
// a value, or a value that was not declared, is a bug in the workload.
func newReport(o *outcome, defs []metricDef, values map[string]float64) (*report, error) {
	r := &report{
		Correct:   o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		r.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	if len(values) != len(defs) {
		return nil, fmt.Errorf("%d metrics measured, %d declared", len(values), len(defs))
	}
	return r, nil
}

// runWorkload runs one workload and builds the reports it prints, one a
// line: a traced run the per-layer metrics; an untraced run the timed
// section's clocks and then, last, the end-to-end metrics.
func runWorkload(w workloadDef, cfg runConfig) ([]*report, *outcome, error) {
	o, err := w.run(cfg)
	if err != nil {
		return nil, nil, err
	}
	if cfg.traced {
		// Rows the workload did not fill are layers it did not reach.
		for _, d := range perLayer {
			if _, ok := o.layers[d.Name]; !ok {
				o.layers[d.Name] = 0
			}
		}
		r, err := newReport(o, perLayer, o.layers)
		return []*report{r}, o, err
	}
	clocks, err := o.timingValues()
	if err != nil {
		return nil, nil, err
	}
	t, err := newReport(o, timing, clocks)
	if err != nil {
		return nil, nil, err
	}
	r, err := newReport(o, endToEnd, o.endToEndValues())
	return []*report{t, r}, o, err
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: sweep, simulate, serve-cold or serve-hot")
		seed     = flag.Int64("seed", 1, "workload seed: orders the ops, never chooses them")
		seconds  = flag.Int("seconds", defaultSeconds, "target length of the timed section; sets the pass and request counts")
		trace    = flag.Int("trace", 0, "1 runs the traced variant and prints the per-layer metrics")
		spansOut = flag.String("spans", "", "with -trace 1, also write every span to this file as JSON")
		audit    = flag.Int("audit", 0, "run every workload in two sets of this many runs and print how each metric repeats")
	)
	flag.Parse()
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "uuperf: -seconds must be at least 1")
		os.Exit(2)
	}
	if *audit == 1 {
		fmt.Fprintln(os.Stderr, "uuperf: -audit needs at least 2 runs a set to take quartiles")
		os.Exit(2)
	}
	if *audit > 0 {
		if err := runAudit(os.Stdout, *audit); err != nil {
			fmt.Fprintln(os.Stderr, "uuperf:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := findWorkload(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "uuperf: unknown workload %q\n", *workload)
		flag.Usage()
		os.Exit(2)
	}
	reports, o, err := runWorkload(w, runConfig{seed: *seed, seconds: *seconds, traced: *trace != 0})
	if err != nil {
		fmt.Fprintln(os.Stderr, "uuperf:", err)
		os.Exit(1)
	}
	if *spansOut != "" && o.spans != nil {
		if err := o.spans.writeFile(*spansOut); err != nil {
			fmt.Fprintln(os.Stderr, "uuperf:", err)
			os.Exit(1)
		}
	}
	for _, r := range reports {
		line, err := json.Marshal(r)
		if err != nil {
			fmt.Fprintln(os.Stderr, "uuperf:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
}

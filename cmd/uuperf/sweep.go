package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"uu/internal/bench"
	"uu/internal/gpusim"
	"uu/internal/pipeline"
)

// lineClock is the harness's Progress writer. RunExperiments writes one line
// per finished cell, so the gap between two lines is one cell's latency; its
// first line ends the harness's planning (the interpreter oracle for all 16
// apps), which is the sweep's set-up.
type lineClock struct {
	first usage // taken at the first line, where the timed section starts
	at    []time.Time
}

func (c *lineClock) Write(p []byte) (int, error) {
	if len(c.at) == 0 {
		c.first = snapshot()
		c.at = append(c.at, c.first.at)
	} else {
		c.at = append(c.at, time.Now())
	}
	return len(p), nil
}

// sweepRecords lines the harness's records up with cells, or reports the
// first cell the harness did not measure.
func sweepRecords(res *bench.Results, cells []cell) ([]*bench.RunRecord, error) {
	recs := make([]*bench.RunRecord, len(cells))
	perLoop := res.PerLoop
	for i, c := range cells {
		var rec *bench.RunRecord
		switch {
		case c.opts.Config == pipeline.Baseline:
			rec = res.Baseline[c.app.Name]
		case c.opts.Config == pipeline.UUHeuristic:
			rec = res.Heuristic[c.app.Name]
		case len(perLoop) > 0:
			rec, perLoop = perLoop[0], perLoop[1:]
		}
		// The harness records unmerge with factor 1; cells keep the
		// pipeline's 0.
		if rec == nil || rec.App != c.app.Name || rec.Config != c.opts.Config || rec.LoopID != c.loopID ||
			(c.opts.Factor > 0 && rec.Factor != c.opts.Factor) {
			return nil, fmt.Errorf("sweep: harness has no record for cell %v", c)
		}
		recs[i] = rec
	}
	return recs, nil
}

// lineGaps pairs the progress lines with the records and returns each cell's
// latency, the gap between its line and the one before. The harness writes a
// line for every cell it measured and none for a cell it skipped (a loop the
// compiler declined to transform), so lines pair with the measured records in
// order. A skipped cell has no latency, and the time its compile attempt took
// falls into the next measured cell's gap; neither has the first measured
// cell, whose line ends the planning.
func lineGaps(recs []*bench.RunRecord, at []time.Time) ([]time.Duration, error) {
	gaps := make([]time.Duration, len(recs))
	line := 0
	for i, rec := range recs {
		if rec.Skipped != "" {
			continue
		}
		if line > 0 && line < len(at) {
			gaps[i] = at[line].Sub(at[line-1])
		}
		line++
	}
	if len(at) != line {
		return nil, fmt.Errorf("sweep: %d progress lines for %d measured cells", len(at), line)
	}
	return gaps, nil
}

// appPair is one app's baseline and uu-heuristic result on V100.
type appPair struct {
	baseMs, uuMs       float64 // simulated kernel time
	baseBytes, uuBytes int64   // kernel code size
}

// suiteGeomeans returns the two deterministic end-to-end metrics from one
// pair per app, indexed like bench.Suite. Code growth is taken over the
// whole binary (the app's own code plus the kernel), as the paper's
// Figure 6b and bench.WriteFig6b take it.
func suiteGeomeans(pairs []appPair) (speedup, growth float64) {
	var s, g []float64
	for i, p := range pairs {
		app := bench.Suite[i].AppCodeBytes
		s = append(s, p.baseMs/p.uuMs)
		g = append(g, float64(app+p.uuBytes)/float64(app+p.baseBytes))
	}
	return geomean(s), geomean(g)
}

// runSweep times the campaign exactly as uubench users run it: one call of
// bench.RunExperiments with one worker and every output verified against
// the interpreter. -seconds does not apply: the campaign is the unit. It
// takes about 25 s with its planning, so a second one in the same run, which
// would let a cell take the better of two latencies, does not fit the
// driver's run-time cap (README.md has the sums).
func runSweep(cfg runConfig) (*outcome, error) {
	cells := sweepCells()
	clock := &lineClock{}
	res, err := bench.RunExperiments(bench.HarnessOptions{Workers: 1, Verify: true, Progress: clock})
	end := snapshot()
	if err != nil {
		// A cell whose output differs from the oracle aborts the campaign.
		return nil, fmt.Errorf("sweep: %w", err)
	}
	recs, err := sweepRecords(res, cells)
	if err != nil {
		return nil, err
	}
	gaps, err := lineGaps(recs, clock.at)
	if err != nil {
		return nil, err
	}
	o := &outcome{attempted: len(cells), section: between(clock.first, end)}
	for i, rec := range recs {
		switch {
		case rec.Skipped != "":
			fmt.Fprintf(os.Stderr, "uuperf: sweep cell %v: skipped: %s\n", cells[i], rec.Skipped)
			o.failed++
		case gaps[i] > 0:
			o.sample(ms(gaps[i]))
		}
	}
	var pairs []appPair
	for _, b := range bench.Suite {
		base, uu := res.Baseline[b.Name], res.Heuristic[b.Name]
		pairs = append(pairs, appPair{base.Millis, uu.Millis, base.CodeBytes, uu.CodeBytes})
	}
	o.speedup, o.growth = suiteGeomeans(pairs)
	if cfg.traced {
		if err := traceSweep(o, cells, recs); err != nil {
			return nil, err
		}
		if err := timingLayers(o.layers, o); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// traceSweep drives the same cells by hand, layer by layer, against its own
// oracle, and fills o.layers. It is a different call path from the harness
// (no record keeping, no progress lines), so its overhead ratio is reported
// but means less than the other workloads'.
func traceSweep(o *outcome, cells []cell, harness []*bench.RunRecord) error {
	apps, err := buildOracles()
	if err != nil {
		return err
	}
	dev, _, err := gpusim.ParseDevice("V100")
	if err != nil {
		return err
	}
	appOf := map[string]*appData{}
	for _, a := range apps {
		appOf[a.b.Name] = a
	}
	log := &spanLog{}
	var irInstrs, vptxInstrs int
	var sim gpusim.Metrics
	start := snapshot()
	for op, c := range cells {
		o.attempted++
		t, end := log.beginOp(op, c.tag())
		f, prog, err := compileByLayer(t, c.app.Source, c.opts)
		var m *gpusim.Metrics
		if err == nil {
			irInstrs += f.NumInstrs()
			vptxInstrs += prog.NumInstrs()
			m, err = executeByLayer(t, prog, appOf[c.app.Name], dev)
		}
		end()
		// The hand-driven cell must land on the harness's numbers exactly.
		if err == nil && (m.KernelMillis(dev) != harness[op].Millis || prog.CodeBytes() != harness[op].CodeBytes) {
			err = fmt.Errorf("kernel %v ms, %d B; harness %v ms, %d B",
				m.KernelMillis(dev), prog.CodeBytes(), harness[op].Millis, harness[op].CodeBytes)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "uuperf: sweep cell %v: %v\n", c, err)
			o.failed++
			continue
		}
		sim.Add(m)
	}
	traced := between(start, snapshot())

	// harden: the 16 uu-heuristic compiles again under the containment
	// guard, as a probe outside the timed section.
	probe := &spanLog{}
	for i, c := range cells {
		if c.opts.Config != pipeline.UUHeuristic {
			continue
		}
		opts := c.opts
		opts.Contain = true
		t, end := probe.beginOp(len(cells)+i, "contain")
		_, _, err := compileByLayer(t, c.app.Source, opts)
		end()
		if err != nil {
			return fmt.Errorf("sweep: contained compile of %s: %w", c.app.Name, err)
		}
	}
	contained := sum(probe.durations("pipeline.optimize", ""))
	plain := sum(log.durations("pipeline.optimize", string(pipeline.UUHeuristic)))

	l := map[string]float64{}
	o.layers, o.spans = l, log
	oracleLayers(l, apps)
	compileLayers(l, log)
	l["pipeline.ir_instrs_out_sum"] = float64(irInstrs)
	l["codegen.vptx_instrs_sum"] = float64(vptxInstrs)
	l["harden.contain_ratio"] = contained / plain
	runMs := sum(log.durations("gpusim.run", ""))
	l["gpusim.run_ms_sum.ipdom"] = runMs
	l["gpusim.minstr_per_s.ipdom"] = float64(sim.ThreadInstrs) / 1e6 / (runMs / 1e3)
	l["gpusim.thread_instrs_sum"] = float64(sim.ThreadInstrs)
	l["gpusim.cycles_sum"] = float64(sim.Cycles)
	l["bench.new_memory_ms_sum"] = sum(log.durations("bench.new_memory", ""))
	l["bench.compare_ms_sum"] = sum(log.durations("bench.compare", ""))
	runtimeLayers(l, traced)
	l["uuperf.trace_overhead_ratio"] = traced.wallS / o.wallS
	l["uuperf.span_coverage"] = log.childSeconds() / traced.wallS
	log.absorb(probe)
	return nil
}

// compileLayers fills the lang, pipeline and codegen rows from the timed
// section's spans.
func compileLayers(l map[string]float64, timed *spanLog) {
	langMs := timed.durations("lang.compile", "")
	l["lang.compile_ms_sum"] = sum(langMs)
	l["lang.kernels_per_s"] = float64(len(langMs)) / (sum(langMs) / 1e3)
	opt := timed.durations("pipeline.optimize", "")
	l["pipeline.optimize_ms_sum"] = sum(opt)
	for i := range timed.spans {
		sp := &timed.spans[i]
		if sp.Name != "pipeline.optimize" {
			continue
		}
		// A tag is a config name, with ".u<factor>" where it unrolls.
		cfg, _, unrolls := strings.Cut(sp.Tag, ".")
		l["pipeline.optimize_ms_sum."+cfg] += float64(sp.DurNs) / 1e6
		if unrolls && cfg == string(pipeline.UU) {
			l["pipeline.optimize_ms_sum."+sp.Tag] += float64(sp.DurNs) / 1e6
		}
	}
	sorted := sortedCopy(opt)
	l["pipeline.optimize_ms_max"] = sorted[len(sorted)-1]
	l["pipeline.slow20_share"] = sum(sorted[max(0, len(sorted)-20):]) / sum(sorted)
	l["codegen.lower_ms_sum"] = sum(timed.durations("codegen.lower", ""))
}

// timingLayers fills the rows of the timed section's clocks from the
// untraced part of a traced run.
func timingLayers(l map[string]float64, untraced *outcome) error {
	clocks, err := untraced.timingValues()
	for name, v := range clocks {
		l[name] = v
	}
	return err
}

// runtimeLayers fills the Go runtime rows for a timed section.
func runtimeLayers(l map[string]float64, s section) {
	l["runtime.gc_cycles"] = s.gcCycles
	l["runtime.gc_pause_ms_sum"] = s.gcPauseMs
	l["runtime.heap_sys_mb"] = s.heapSysMB
}

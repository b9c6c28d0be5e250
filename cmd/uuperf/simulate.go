package main

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"time"

	"uu/internal/bench"
	"uu/internal/gpusim"
	"uu/internal/pipeline"
)

// simPasses is how many times the simulate workload walks its 96 ops; a pass
// takes about 1.4 s on the 2-core reference box. A traced run makes a
// quarter as many of each kind, untraced and traced.
const simPasses = 16

// simProgram is one compiled program of the simulate workload.
type simProgram struct {
	app *appData
	cr  *bench.CompileResult
}

// simRun is the simulate workload after set-up.
type simRun struct {
	o     *outcome
	ops   []simOp
	progs []simProgram // app-major, simConfigs-minor
	devs  []gpusim.DeviceConfig
	rng   *rand.Rand
	// first holds each op's metrics from its first execution. The simulator
	// is deterministic, so every later execution must reproduce them.
	first []*gpusim.Metrics
}

// setupSimulate builds the oracles and compiles the 32 programs.
func setupSimulate(seed int64) (*simRun, []*appData, error) {
	apps, err := buildOracles()
	if err != nil {
		return nil, nil, err
	}
	s := &simRun{o: &outcome{}, ops: simOps(), rng: rand.New(rand.NewSource(seed))}
	s.first = make([]*gpusim.Metrics, len(s.ops))
	for _, d := range simDevices {
		dev, _, err := gpusim.ParseDevice(d.spec)
		if err != nil {
			return nil, nil, err
		}
		s.devs = append(s.devs, dev)
	}
	for _, a := range apps {
		for _, c := range simConfigs {
			cr, err := bench.Compile(a.b, pipeline.Options{Config: c})
			if err != nil {
				return nil, nil, err
			}
			s.progs = append(s.progs, simProgram{a, cr})
		}
	}
	return s, apps, nil
}

// execute runs one op and checks it: through bench.Execute when log is nil,
// layer by layer with spans otherwise.
func (s *simRun) execute(id, i int, log *spanLog) (*gpusim.Metrics, error) {
	op := s.ops[i]
	p, dev := s.progs[op.prog], s.devs[op.dev]
	var m *gpusim.Metrics
	var err error
	if log == nil {
		m, err = bench.Execute(p.cr, p.app.w, dev, p.app.ref)
	} else {
		t, end := log.beginOp(id, simDevices[op.dev].policy)
		m, err = executeByLayer(t, p.cr.Program, p.app, dev)
		end()
	}
	if err != nil {
		return nil, err
	}
	if s.first[i] == nil {
		s.first[i] = m
	} else if *m != *s.first[i] {
		return nil, fmt.Errorf("metrics differ from the op's first execution")
	}
	return m, nil
}

// pass runs the op list once, in an order drawn from the seed, and adds what
// it measured to o and the simulated work it did to work, per device.
func (s *simRun) pass(o *outcome, log *spanLog, work []gpusim.Metrics) {
	start := snapshot()
	for _, i := range s.rng.Perm(len(s.ops)) {
		t := time.Now()
		m, err := s.execute(o.attempted, i, log)
		d := time.Since(t)
		o.attempted++
		if err != nil {
			fmt.Fprintf(os.Stderr, "uuperf: simulate op %v: %v\n", s.ops[i], err)
			o.failed++
			continue
		}
		o.sample(ms(d))
		work[s.ops[i].dev].Add(m)
	}
	o.addSection(between(start, snapshot()))
}

// geomeans computes the deterministic metrics from the V100 executions.
func (s *simRun) geomeans() error {
	pairs := make([]appPair, len(bench.Suite))
	for i, op := range s.ops {
		if op.dev != 0 {
			continue
		}
		if s.first[i] == nil {
			return fmt.Errorf("simulate: op %v never succeeded", op)
		}
		ms, bytes := s.first[i].KernelMillis(s.devs[0]), s.progs[op.prog].cr.Program.CodeBytes()
		pair := &pairs[op.prog/len(simConfigs)]
		if simConfigs[op.prog%len(simConfigs)] == pipeline.Baseline {
			pair.baseMs, pair.baseBytes = ms, bytes
		} else {
			pair.uuMs, pair.uuBytes = ms, bytes
		}
	}
	s.o.speedup, s.o.growth = suiteGeomeans(pairs)
	return nil
}

// runSimulate times the simulator with the compiler out of the way: the 32
// programs are compiled during set-up and then executed on the three devices
// for many passes, every output compared with the interpreter's.
func runSimulate(cfg runConfig) (*outcome, error) {
	s, apps, err := setupSimulate(cfg.seed)
	if err != nil {
		return nil, err
	}
	passes := cfg.scaled(simPasses, 8)
	if cfg.traced {
		if err := s.trace(apps, passes/4); err != nil {
			return nil, err
		}
	} else {
		work := make([]gpusim.Metrics, len(s.devs))
		for p := 0; p < passes; p++ {
			s.pass(s.o, nil, work)
		}
	}
	return s.o, s.geomeans()
}

// probeRuns is how many fresh copies of each program the first-run probe
// compiles: a program runs for the first time once, so repeating that takes
// a copy per repeat.
const probeRuns = 3

// probePrepare measures what a program's first run costs beyond a later one,
// which is its decoding and the building of its closures: every program is
// compiled afresh probeRuns times and each copy run twice on the first
// device. It returns the first-run and second-run time summed over the
// programs, each program at the quickest of its copies.
func (s *simRun) probePrepare(probe *spanLog) (firstMs, warmMs float64, err error) {
	id := 0
	for pi, p := range s.progs {
		for r := 0; r < probeRuns; r++ {
			cr, err := bench.Compile(p.app.b, pipeline.Options{Config: simConfigs[pi%len(simConfigs)]})
			if err != nil {
				return 0, 0, err
			}
			for _, tag := range []string{"first", "warm"} {
				t, end := probe.beginOp(id, tag)
				_, err := executeByLayer(t, cr.Program, p.app, s.devs[0])
				end()
				id++
				if err != nil {
					return 0, 0, fmt.Errorf("simulate: %s run of %s: %w", tag, p.app.b.Name, err)
				}
			}
		}
	}
	first, warm := probe.durations("gpusim.run", "first"), probe.durations("gpusim.run", "warm")
	for i := 0; i < len(first); i += probeRuns {
		firstMs += slices.Min(first[i : i+probeRuns])
		warmMs += slices.Min(warm[i : i+probeRuns])
	}
	return firstMs, warmMs, nil
}

// trace fills the per-layer rows: probes outside the timed section, then the
// same passes untraced and traced, taken alternately so that both see the
// same box.
func (s *simRun) trace(apps []*appData, passes int) error {
	probe := &spanLog{}
	first, warm, err := s.probePrepare(probe)
	if err != nil {
		return err
	}
	// The switch executor is reached through a device spec only, and the
	// row stays 0 once the spec stops parsing.
	switchMs := 0.0
	if dev, _, err := gpusim.ParseDevice("V100:exec=switch"); err == nil {
		for i, p := range s.progs {
			t, end := probe.beginOp(2*probeRuns*len(s.progs)+i, "switch")
			_, err := executeByLayer(t, p.cr.Program, p.app, dev)
			end()
			if err != nil {
				return fmt.Errorf("simulate: switch run of %s: %w", p.app.b.Name, err)
			}
		}
		switchMs = sum(probe.durations("gpusim.run", "switch"))
	}

	untraced, log := &outcome{}, &spanLog{}
	work, unused := make([]gpusim.Metrics, len(s.devs)), make([]gpusim.Metrics, len(s.devs))
	for p := 0; p < passes; p++ {
		s.pass(untraced, nil, unused)
		s.pass(s.o, log, work)
	}
	s.o.attempted += untraced.attempted
	s.o.failed += untraced.failed

	l := map[string]float64{}
	s.o.layers, s.o.spans = l, log
	oracleLayers(l, apps)
	var total gpusim.Metrics
	for d, dev := range simDevices {
		runMs := sum(log.durations("gpusim.run", dev.policy))
		l["gpusim.run_ms_sum."+dev.policy] = runMs
		l["gpusim.minstr_per_s."+dev.policy] = float64(work[d].ThreadInstrs) / 1e6 / (runMs / 1e3)
		total.Add(&work[d])
	}
	l["gpusim.thread_instrs_sum"] = float64(total.ThreadInstrs)
	l["gpusim.cycles_sum"] = float64(total.Cycles)
	l["gpusim.first_run_ms_sum"] = first
	l["gpusim.warm_run_ms_sum"] = warm
	l["gpusim.prepare_share"] = (first - warm) / first
	l["gpusim.run_ms_sum.switch"] = switchMs
	l["bench.new_memory_ms_sum"] = sum(log.durations("bench.new_memory", ""))
	l["bench.compare_ms_sum"] = sum(log.durations("bench.compare", ""))
	runtimeLayers(l, s.o.section)
	l["uuperf.trace_overhead_ratio"] = overheadRatio(s.o, untraced)
	l["uuperf.span_coverage"] = log.childSeconds() / s.o.wallS
	log.absorb(probe)
	return timingLayers(l, untraced)
}

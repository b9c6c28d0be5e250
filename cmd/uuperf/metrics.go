package main

import "slices"

// metricDef declares one metric the benchmark prints. BENCHMARK.json at the
// repository root carries the same declarations; TestBenchmarkJSONMatches
// keeps the two from drifting.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median the metric may worsen by
}

// exact is the bound of the deterministic metrics: simulated results and the
// share of correct ops repeat to the last digit, so any worsening is a
// regression. It is not 0 only because a bound is a share of a median.
const exact = 1e-9

// timingBound is the bound the issue fixes for every timing metric: a tenth,
// never more. A timing metric that does not repeat well within it is not
// given a wider bound; it leaves the end-to-end list (see timing).
const timingBound = 0.10

// endToEnd lists the metrics every workload prints with -trace 0: the ones
// that repeat within their bound on the reference box, so that a change can
// be refused on them. setup_s is the contract's own metric: it is exempt
// from the spread and takes the widest bound the contract allows, because
// its median moved by a tenth between two audits a few hours apart.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ok_share", "ratio", "higher", exact},
	{"alloc_mb", "MB", "lower", 0.03},
	{"uu_speedup_geomean", "ratio", "higher", exact},
	{"code_growth_geomean", "ratio", "lower", exact},
}

// timing lists the clocks of the timed section, defined as the issue defines
// its end-to-end timings: raw, over every correct op. On the reference box
// single runs of each land 10-25% from their median on every workload
// (SPREAD.md), against the 5% the issue allows a metric with a 10% bound, and
// neither more passes nor a second sweep campaign fits the driver's run-time
// cap; so, as the issue prescribes, they are per-layer metrics, without a
// bound. An untraced run prints them from its whole timed section on a line
// before its report; a traced run from its untraced stretches.
//
// No p95/p99/max is among them: sweep has 178 op samples, so nothing above
// p90 has ten samples beyond it (see pickPercentile).
var timing = []metricDef{
	{"wall_s", "s", "lower", 0},
	{"cpu_s", "s", "lower", 0},
	{"ops_per_s", "1/s", "higher", 0},
	{"op_ms_p50", "ms", "lower", 0},
	{"op_ms_p90", "ms", "lower", 0},
}

// perLayer lists the metrics every workload prints with -trace 1. A metric
// whose layer a workload does not reach reads 0 there; those zeros are the
// benchmark's no-movement predictions, measured (README.md has the table).
var perLayer = append(slices.Clip(timing), []metricDef{
	{"lang.compile_ms_sum", "ms", "lower", 0},
	{"lang.kernels_per_s", "1/s", "higher", 0},

	{"pipeline.optimize_ms_sum", "ms", "lower", 0},
	{"pipeline.optimize_ms_sum.baseline", "ms", "lower", 0},
	{"pipeline.optimize_ms_sum.unroll", "ms", "lower", 0},
	{"pipeline.optimize_ms_sum.unmerge", "ms", "lower", 0},
	{"pipeline.optimize_ms_sum.uu", "ms", "lower", 0},
	{"pipeline.optimize_ms_sum.uu-heuristic", "ms", "lower", 0},
	{"pipeline.optimize_ms_sum.uu.u2", "ms", "lower", 0},
	{"pipeline.optimize_ms_sum.uu.u4", "ms", "lower", 0},
	{"pipeline.optimize_ms_sum.uu.u8", "ms", "lower", 0},
	{"pipeline.optimize_ms_max", "ms", "lower", 0},
	{"pipeline.slow20_share", "ratio", "lower", 0},
	{"pipeline.ir_instrs_out_sum", "count", "lower", 0},
	{"harden.contain_ratio", "ratio", "lower", 0},

	{"codegen.lower_ms_sum", "ms", "lower", 0},
	{"codegen.vptx_instrs_sum", "count", "lower", 0},

	{"gpusim.run_ms_sum.ipdom", "ms", "lower", 0},
	{"gpusim.run_ms_sum.minsppc", "ms", "lower", 0},
	{"gpusim.run_ms_sum.vortex", "ms", "lower", 0},
	{"gpusim.run_ms_sum.switch", "ms", "lower", 0},
	{"gpusim.minstr_per_s.ipdom", "M/s", "higher", 0},
	{"gpusim.minstr_per_s.minsppc", "M/s", "higher", 0},
	{"gpusim.minstr_per_s.vortex", "M/s", "higher", 0},
	{"gpusim.thread_instrs_sum", "count", "lower", 0},
	{"gpusim.cycles_sum", "count", "lower", 0},
	{"gpusim.first_run_ms_sum", "ms", "lower", 0},
	{"gpusim.warm_run_ms_sum", "ms", "lower", 0},
	{"gpusim.prepare_share", "ratio", "lower", 0},

	{"interp.reference_ms_sum", "ms", "lower", 0},
	{"interp.threads_per_s", "1/s", "higher", 0},

	{"bench.new_memory_ms_sum", "ms", "lower", 0},
	{"bench.compare_ms_sum", "ms", "lower", 0},

	{"serve.frontend_ms_p50", "ms", "lower", 0},
	{"serve.resolve_ms_p50", "ms", "lower", 0},
	{"serve.admission_ms_p50", "ms", "lower", 0},
	{"serve.compile_ms_sum", "ms", "lower", 0},
	{"serve.simulate_ms_sum", "ms", "lower", 0},
	{"serve.overhead_ms_p50", "ms", "lower", 0},
	{"serve.resp_kb_mean", "kB", "lower", 0},
	{"serve.follower_ms_p50", "ms", "lower", 0},
	{"serve.coalesced_share", "ratio", "higher", 0},
	{"serve.compiles", "count", "lower", 0},
	{"serve.hit_share", "ratio", "higher", 0},
	{"serve.shed_count", "count", "lower", 0},
	{"serve.hot_ms_p50.app", "ms", "lower", 0},
	{"serve.hot_ms_p50.source", "ms", "lower", 0},
	{"serve.hot_ms_p50.ir", "ms", "lower", 0},
	{"serve.hot_ms_p99", "ms", "lower", 0},
	{"serve.hot_ms_max", "ms", "lower", 0},

	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.gc_pause_ms_sum", "ms", "lower", 0},
	{"runtime.heap_sys_mb", "MB", "lower", 0},

	{"uuperf.trace_overhead_ratio", "ratio", "lower", 0},
	{"uuperf.span_coverage", "ratio", "higher", 0},
}...)

// workloadDef names one workload and records why it exists.
type workloadDef struct {
	Name string
	Why  string
	run  func(cfg runConfig) (*outcome, error)
}

var workloads = []workloadDef{
	{"sweep", "the paper's 179-cell campaign through bench.RunExperiments; pipeline does ~85% of the work and each program is simulated once", runSweep},
	{"simulate", "32 compiled programs x 3 divergence policies re-executed for many passes; gpusim does all the work, pipeline none", runSimulate},
	{"serve-cold", "192 distinct keys through a fresh uud server, two clients in lock step; every op is a miss, so compile plus serve's key path", runServeCold},
	{"serve-hot", "40000 Zipf-distributed requests over 192 cached keys; every op is a hit, so frontend, fingerprint, LRU and JSON only", runServeHot},
}

package bench

import (
	"fmt"
	"time"

	"uu/internal/gpusim"
	"uu/internal/pipeline"
	"uu/internal/remark"
)

// The functions below render finished work into a trace for cmd/ and serve;
// nothing in this package records into one while it runs.

// TraceCompile renders one compilation on lane tid: the pipeline's spans
// (pipeline.Stats.Trace), then the codegen span, which ran from the
// pipeline's end until lowered. A zero lowered means codegen never ran.
func TraceCompile(tr *remark.Trace, tid int, st *pipeline.Stats, lowered time.Time) {
	st.Trace(tr, tid)
	if from := st.Start.Add(st.CompileTime); lowered.After(from) {
		tr.Complete(tid, "codegen:"+st.Function, "codegen", from, lowered.Sub(from), nil)
	}
}

// TraceSim renders one simulation of kernel, clocked by its caller, as the
// "sim:" span on lane tid, with the headline metrics as its args.
func TraceSim(tr *remark.Trace, tid int, kernel string, start time.Time, dur time.Duration, m *gpusim.Metrics, dev gpusim.DeviceConfig) {
	tr.Complete(tid, "sim:"+kernel, "gpusim", start, dur, map[string]any{
		"warps":                     m.Warps,
		"cycles":                    m.Cycles,
		"warp_instrs":               m.WarpInstrs,
		"thread_instrs":             m.ThreadInstrs,
		"warp_execution_efficiency": m.WarpExecutionEfficiency(dev),
		"gld_transactions":          m.GldTransactions,
		"gst_transactions":          m.GstTransactions,
		"stall_inst_fetch":          m.StallInstFetch,
		"dep_stall_cycles":          m.DepStallCycles,
	})
}

// TraceCampaign renders a finished sweep: per run a "job:" span over the
// whole of it with the compilation and the simulation inside it, one lane
// per harness worker. Event order in the file is not significant.
func TraceCampaign(tr *remark.Trace, r *Results) {
	recs := append([]*RunRecord(nil), r.PerLoop...)
	for _, rec := range r.Baseline {
		recs = append(recs, rec)
	}
	for _, rec := range r.Heuristic {
		recs = append(recs, rec)
	}
	for _, rec := range recs {
		tr.Complete(rec.Worker, fmt.Sprintf("job:%s %s loop=%d u=%d", rec.App, rec.Config, rec.LoopID, rec.Factor),
			"bench", rec.Start, rec.CompileWall+rec.SimulateWall, nil)
		compiled := rec.Start.Add(rec.CompileWall)
		switch {
		case rec.Stats == nil: // the frontend failed
		case rec.Metrics == nil: // skipped: the pipeline ran, codegen did not
			TraceCompile(tr, rec.Worker, rec.Stats, time.Time{})
		default:
			TraceCompile(tr, rec.Worker, rec.Stats, compiled)
			TraceSim(tr, rec.Worker, rec.Stats.Function, compiled, rec.SimulateWall, rec.Metrics, r.Device)
		}
	}
}

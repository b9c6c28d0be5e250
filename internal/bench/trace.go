package bench

import (
	"fmt"

	"uu/internal/gpusim"
	"uu/internal/remark"
)

// The functions below render finished work into a trace for cmd/ and serve;
// nothing in this package records into one while it runs.

// Trace renders the run on lane tid as far as it got: the pipeline's spans
// (pipeline.Stats.Trace), the "codegen:" span from the pipeline's end to the
// end of CompileWall, and the "sim:" span over SimulateWall with the headline
// metrics on dev as its args.
func (r *RunRecord) Trace(tr *remark.Trace, tid int, dev gpusim.DeviceConfig) {
	st := r.Stats
	if st == nil { // the frontend failed
		return
	}
	st.Trace(tr, tid)
	if r.CodeBytes == 0 { // the pipeline or codegen failed: Run sets it only for a program
		return
	}
	compiled := r.Start.Add(r.CompileWall)
	if from := st.Start.Add(st.CompileTime); compiled.After(from) {
		tr.Complete(tid, "codegen:"+st.Function, "codegen", from, compiled.Sub(from), nil)
	}
	m := r.Metrics
	if m == nil {
		return
	}
	tr.Complete(tid, "sim:"+st.Function, "gpusim", compiled, r.SimulateWall, map[string]any{
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
// whole of it with the run's own spans (RunRecord.Trace) inside it, one lane
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
		rec.Trace(tr, rec.Worker, r.Device)
	}
}

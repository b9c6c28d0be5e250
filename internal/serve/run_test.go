package serve

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"uu/internal/bench"
	"uu/internal/gpusim"
	"uu/internal/pipeline"
)

// TestResponseIsTheHarnessRecord: uud and the campaign harness run a kernel
// through the same bench.Run, so a response reports exactly what the harness
// recorded for the same (app, configuration, loop, factor) cell — kernel
// time, cycles, code size, whether the loop was transformed — and a compile
// the pipeline refuses is a 422 whose message is the harness's skip reason.
func TestResponseIsTheHarnessRecord(t *testing.T) {
	res, err := bench.RunExperiments(bench.HarnessOptions{Apps: []string{"complex", "bezier-surface"}, Factors: []int{2}, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{Workers: 2})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	h := s.Handler()

	recs := res.PerLoop
	for _, app := range []string{"complex", "bezier-surface"} {
		recs = append(recs, res.Baseline[app], res.Heuristic[app])
	}
	// A cell no campaign plans: the loop does not exist.
	b := bench.ByName("complex")
	refused, err := bench.Run(context.Background(), bench.Job{Name: b.Name, Kernel: b.CompileKernel, Workload: b.NewWorkload(),
		Options: pipeline.Options{Config: pipeline.UU, LoopID: 99, Factor: 2}, Device: gpusim.V100()})
	if err == nil {
		t.Fatal("loop 99 of complex compiled")
	}
	refused.App, refused.LoopID, refused.Factor, refused.Skipped = "complex", 99, 2, err.Error()
	recs = append(recs, refused)

	for _, rec := range recs {
		req := &Request{App: rec.App, Config: string(rec.Config)}
		if rec.LoopID >= 0 {
			req.Loop = rec.LoopID
			if rec.Config != pipeline.UnmergeOnly { // the harness labels unmerge factor 1; it compiles with 0
				req.Factor = rec.Factor
			}
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		out := record(h, body)
		name := rec.App + " " + string(rec.Config)
		if rec.Skipped != "" {
			var e Error
			if out.Code != 422 || json.Unmarshal(out.Body.Bytes(), &e) != nil || e.Code != "compile-failed" || e.Msg != rec.Skipped {
				t.Errorf("%s loop %d: %d %s, want 422 compile-failed %q", name, rec.LoopID, out.Code, out.Body, rec.Skipped)
			}
			continue
		}
		var resp Response
		if out.Code != 200 || json.Unmarshal(out.Body.Bytes(), &resp) != nil {
			t.Fatalf("%s loop %d: %d %s", name, rec.LoopID, out.Code, out.Body)
		}
		if resp.KernelMs != rec.Millis || resp.Cycles != rec.Metrics.Cycles || resp.CodeBytes != rec.CodeBytes ||
			resp.GldTransactions != rec.Metrics.GldTransactions || resp.LoopTransformed != rec.Stats.LoopTransformed {
			t.Errorf("%s loop %d u%d: response %v ms, %d cycles, %d B, %d gld, transformed %t; harness %v ms, %d cycles, %d B, %d gld, transformed %t",
				name, rec.LoopID, rec.Factor, resp.KernelMs, resp.Cycles, resp.CodeBytes, resp.GldTransactions, resp.LoopTransformed,
				rec.Millis, rec.Metrics.Cycles, rec.CodeBytes, rec.Metrics.GldTransactions, rec.Stats.LoopTransformed)
		}
	}
}

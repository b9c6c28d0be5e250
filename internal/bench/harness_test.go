package bench

import (
	"reflect"
	"testing"

	"uu/internal/pipeline"
)

// TestRunExperimentsWorkerDeterminism checks the HarnessOptions.Workers
// contract: the same campaign run serially and on a worker pool produces
// identical results in identical order (wall-clock fields excepted).
func TestRunExperimentsWorkerDeterminism(t *testing.T) {
	run := func(workers int) *Results {
		res, err := RunExperiments(HarnessOptions{
			Apps:    []string{"contract", "clink"},
			Factors: []int{2},
			Workers: workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	serial := run(1)
	parallel := run(4)

	if !reflect.DeepEqual(serial.LoopCount, parallel.LoopCount) {
		t.Fatalf("LoopCount differs: %v vs %v", serial.LoopCount, parallel.LoopCount)
	}
	sameRec := func(what string, a, b *RunRecord) {
		t.Helper()
		if (a == nil) != (b == nil) {
			t.Fatalf("%s: one record missing", what)
		}
		if a == nil {
			return
		}
		// CompileMs and PassTimes are wall-clock and legitimately vary;
		// everything else must be bit-identical.
		if a.App != b.App || a.Config != b.Config || a.LoopID != b.LoopID ||
			a.Factor != b.Factor || a.Skipped != b.Skipped {
			t.Fatalf("%s: identity differs: %+v vs %+v", what, a, b)
		}
		if a.Millis != b.Millis || a.CodeBytes != b.CodeBytes {
			t.Fatalf("%s: measurement differs: %v/%v ms, %v/%v B",
				what, a.Millis, b.Millis, a.CodeBytes, b.CodeBytes)
		}
		if !reflect.DeepEqual(a.Metrics, b.Metrics) {
			t.Fatalf("%s: metrics differ", what)
		}
		if !reflect.DeepEqual(a.Stats.Decisions, b.Stats.Decisions) {
			t.Fatalf("%s: decisions differ", what)
		}
	}
	for app := range serial.Baseline {
		sameRec("baseline "+app, serial.Baseline[app], parallel.Baseline[app])
		sameRec("heuristic "+app, serial.Heuristic[app], parallel.Heuristic[app])
	}
	if len(serial.PerLoop) != len(parallel.PerLoop) {
		t.Fatalf("PerLoop length differs: %d vs %d", len(serial.PerLoop), len(parallel.PerLoop))
	}
	for i := range serial.PerLoop {
		sameRec("per-loop", serial.PerLoop[i], parallel.PerLoop[i])
	}
}

// TestAnalysisCacheHitRate pins the point of the analysis manager: within a
// pipeline run, most analysis queries are answered from cache rather than
// recomputed. The compile is fully deterministic, so the counters are exact;
// the thresholds leave headroom for pipeline evolution.
func TestAnalysisCacheHitRate(t *testing.T) {
	for _, tc := range []struct {
		opts    pipeline.Options
		minRate float64
	}{
		{pipeline.Options{Config: pipeline.Baseline}, 0.5},
		{pipeline.Options{Config: pipeline.UU, LoopID: 0, Factor: 2}, 0.3},
	} {
		cr, err := Compile(ByName("xsbench"), tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		s := cr.Stats.Analysis
		if s.TotalHits() == 0 {
			t.Errorf("%s: no cache hits at all — is the manager being threaded through passes?", tc.opts.Config)
		}
		if r := s.HitRate(); r < tc.minRate {
			t.Errorf("%s: cache hit rate %.3f below %.2f (%d hits / %d misses)",
				tc.opts.Config, r, tc.minRate, s.TotalHits(), s.TotalMisses())
		}
	}
}

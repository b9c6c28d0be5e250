package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"uu/internal/gpusim"
	"uu/internal/pipeline"
	"uu/internal/remark"
)

// remarkCorpusApps are the in-depth-analysis applications the golden remark
// corpus covers — the same four kernels the paper's Section V dissects.
var remarkCorpusApps = []string{"xsbench", "rainflow", "complex", "bezier-surface"}

// goldenRemarks produces the golden remark stream for one (app, config)
// cell: the YAML document stream, preceded by a SKIP line when the pipeline
// refuses the configuration (remarks emitted before the refusal are still
// part of the contract).
func goldenRemarks(b *Benchmark, opts pipeline.Options) string {
	rc := remark.NewCollector()
	opts.Remarks = rc
	var sb strings.Builder
	if _, err := Compile(b, opts); err != nil {
		sb.WriteString("SKIP: " + err.Error() + "\n")
	}
	if err := remark.WriteYAML(&sb, rc.Remarks(), nil); err != nil {
		panic(err)
	}
	return sb.String()
}

// TestGoldenRemarks pins the optimization-remark stream of the four
// Section V kernels across all five pipeline configurations. Remarks carry
// no timestamps or addresses, so the stream must be byte-identical run to
// run; a diff means a pass changed what it reports (regenerate with
// -update-golden after review) or lost determinism (a bug).
func TestGoldenRemarks(t *testing.T) {
	dir := filepath.Join("testdata", "goldenremarks")
	if *updateGolden {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, app := range remarkCorpusApps {
		b := ByName(app)
		if b == nil {
			t.Fatalf("unknown corpus app %q", app)
		}
		t.Run(app, func(t *testing.T) {
			t.Parallel()
			for _, opts := range goldenCases() {
				name := strings.TrimSuffix(goldenName(b.Name, opts), ".vptx") + ".yaml"
				got := goldenRemarks(b, opts)
				path := filepath.Join(dir, name)
				if *updateGolden {
					if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden %s (run with -update-golden to capture): %v", name, err)
				}
				if got != string(want) {
					t.Errorf("%s: remark stream differs from golden %s (%d vs %d bytes)",
						b.Name, name, len(got), len(want))
				}
			}
		})
	}
}

// TestRemarksWorkerInvariance is the harness-level determinism contract:
// the assembled campaign remark stream — compile-time remarks plus the
// gpusim SimMetrics remark per run — must be byte-identical whether the
// campaign ran on 1 worker or on 8.
func TestRemarksWorkerInvariance(t *testing.T) {
	run := func(workers int) string {
		res, err := RunExperiments(HarnessOptions{
			Apps:    []string{"complex", "bezier-surface"},
			Factors: []int{2},
			Workers: workers,
			Remarks: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := remark.WriteYAML(&sb, res.Remarks, nil); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	seq := run(1)
	par := run(8)
	if seq == "" || !strings.Contains(seq, "SimMetrics") {
		t.Fatalf("campaign produced no simulation remarks:\n%.400s", seq)
	}
	if seq != par {
		t.Errorf("remark stream depends on worker count (%d vs %d bytes)", len(seq), len(par))
	}
}

// chromeTrace is the part of a rendered trace the tests below read back.
type chromeTrace struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

func renderTrace(t *testing.T, tr *remark.Trace) chromeTrace {
	t.Helper()
	var b bytes.Buffer
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var doc chromeTrace
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" || len(doc.TraceEvents) == 0 {
		t.Fatalf("trace has unit %q and %d events", doc.DisplayTimeUnit, len(doc.TraceEvents))
	}
	return doc
}

// TestTraceJSONWellFormed renders a run the way the CLIs do — after the
// fact, from its record (RunRecord.Trace) — and checks the Chrome trace
// contract end to end: spans from every layer (pipeline, per-pass, codegen, gpusim) on the caller's lane, a
// pass span per record in record order, and the headline metrics on the
// "sim:" span (the remark package's own tests cover the encoding).
func TestTraceJSONWellFormed(t *testing.T) {
	tr := remark.NewTrace()
	b := ByName("complex")
	rec, err := Run(context.Background(), Job{Name: b.Name, Kernel: b.CompileKernel, Workload: b.NewWorkload(),
		Options: pipeline.Options{Config: pipeline.UUHeuristic}, Device: gpusim.V100()})
	if err != nil {
		t.Fatal(err)
	}
	rec.Trace(tr, 3, gpusim.V100())

	doc := renderTrace(t, tr)
	cats := map[string]int{}
	var passes []string
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.TID != 3 {
			t.Errorf("event %q: ph %q on lane %d, want a complete span on lane 3", ev.Name, ev.Ph, ev.TID)
		}
		cats[ev.Cat]++
		if ev.Cat == "pass" {
			passes = append(passes, ev.Name)
		}
		if ev.Cat == "gpusim" {
			for _, k := range []string{"cycles", "warp_instrs", "thread_instrs", "warp_execution_efficiency",
				"gld_transactions", "gst_transactions", "stall_inst_fetch", "dep_stall_cycles"} {
				if _, ok := ev.Args[k]; !ok {
					t.Errorf("%s span carries no %q", ev.Name, k)
				}
			}
			if got := ev.Args["cycles"]; got != float64(rec.Metrics.Cycles) {
				t.Errorf("%s span cycles = %v, want %d", ev.Name, got, rec.Metrics.Cycles)
			}
		}
	}
	for _, cat := range []string{"pipeline", "pass", "codegen", "gpusim"} {
		if cats[cat] == 0 {
			t.Errorf("trace has no %q span (has %v)", cat, cats)
		}
	}
	if cats["codegen"] != 1 || cats["gpusim"] != 1 {
		t.Errorf("want one codegen and one sim span, got %v", cats)
	}
	if len(passes) != len(rec.Stats.PassTimes) {
		t.Fatalf("%d pass spans for %d pass records", len(passes), len(rec.Stats.PassTimes))
	}
	for i, pt := range rec.Stats.PassTimes {
		if passes[i] != pt.Name {
			t.Fatalf("pass span %d is %s, record %d is %s", i, passes[i], i, pt.Name)
		}
	}
}

// TestCampaignTrace renders a campaign after the fact at two worker counts:
// the same spans whatever the pool size (only their lanes and times move),
// exactly one job span per run, and never more lanes than workers.
func TestCampaignTrace(t *testing.T) {
	render := func(workers int) (names map[string]int, lanes map[int]bool) {
		tr := remark.NewTrace()
		res, err := RunExperiments(HarnessOptions{Apps: []string{"contract", "clink"}, Factors: []int{2}, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		TraceCampaign(tr, res)
		names, lanes = map[string]int{}, map[int]bool{}
		jobs := 0
		for _, ev := range renderTrace(t, tr).TraceEvents {
			names[ev.Cat+" "+ev.Name]++
			lanes[ev.TID] = true
			if ev.Cat == "bench" {
				jobs++
			}
		}
		if runs := len(res.Baseline) + len(res.Heuristic) + len(res.PerLoop); jobs != runs {
			t.Errorf("workers=%d: %d job spans for %d runs", workers, jobs, runs)
		}
		if len(lanes) > workers {
			t.Errorf("workers=%d: spans on %d lanes", workers, len(lanes))
		}
		return names, lanes
	}
	serial, _ := render(1)
	pooled, _ := render(4)
	if !reflect.DeepEqual(serial, pooled) {
		t.Errorf("span multiset depends on the worker count:\n1: %v\n4: %v", serial, pooled)
	}
	for _, want := range []string{"bench job:contract baseline loop=-1 u=0", "pipeline optimize:contract", "codegen codegen:contract", "gpusim sim:contract"} {
		if serial[want] == 0 {
			t.Errorf("campaign trace has no %q span", want)
		}
	}
}
